(* The reference segment table: live segments in a Map keyed by base plus
   a Hashtbl by id. Allocation follows the production discipline exactly
   (monotonic bases, one guard page, ids from 1), so test_os_store.ml can
   compare lookups address by address. *)

open Sasos
open Sasos.Os
module Base_map = Map.Make (Int)

type t = {
  geom : Geometry.t;
  mutable by_base : Segment.t Base_map.t;
  by_id : (int, Segment.t) Hashtbl.t;
  mutable next_base : int;
  mutable next_id : int;
}

let create geom =
  {
    geom;
    by_base = Base_map.empty;
    by_id = Hashtbl.create 16;
    next_base = 0x100_0000;
    next_id = 1;
  }

let allocate t ~pages () =
  let page_shift = t.geom.Geometry.page_shift in
  let base = Util.Bits.round_up t.next_base (1 lsl page_shift) in
  let id = t.next_id in
  t.next_id <- id + 1;
  t.next_base <- base + (pages lsl page_shift) + (1 lsl page_shift);
  let seg =
    {
      Segment.id = Segment.id_of_int id;
      name = Printf.sprintf "seg%d" id;
      base;
      pages;
      page_shift;
    }
  in
  t.by_base <- Base_map.add base seg t.by_base;
  Hashtbl.replace t.by_id id seg;
  seg

let destroy t id =
  let id = Segment.id_to_int id in
  match Hashtbl.find_opt t.by_id id with
  | None -> raise Not_found
  | Some seg ->
      Hashtbl.remove t.by_id id;
      t.by_base <- Base_map.remove seg.Segment.base t.by_base;
      seg

let find_by_va t va =
  match Base_map.find_last_opt (fun base -> base <= va) t.by_base with
  | Some (_, seg) when Segment.contains seg va -> Some seg
  | Some _ | None -> None

let find_id_by_va t va =
  match find_by_va t va with
  | Some seg -> Segment.id_to_int seg.Segment.id
  | None -> -1

let live_count t = Hashtbl.length t.by_id
