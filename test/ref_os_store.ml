(* The reference protection database: polymorphic Hashtbls keyed by
   (pd, seg id) / (pd, protection unit) tuples, and the live domains as a
   list, newest first. It answers every protection query of Os_core by
   direct search — no candidate index, no per-unit counts, no liveness
   map — so test_os_store.ml can run it in lockstep with the production
   store and compare every answer. Segment lookup goes through the
   segment table of the Os_core under test (it has its own lockstep). *)

open Sasos
open Sasos.Os

type t = {
  segments : Segment_table.t;
  prot_shift : int;
  attachments : (int * int, Rights.t) Hashtbl.t;
  overrides : (int * int, Rights.t) Hashtbl.t;
  override_counts : (int * int, int) Hashtbl.t;
  mutable domains : Pd.t list;
  mutable next_pd : int;
}

let create (os : Os_core.t) =
  {
    segments = os.Os_core.segments;
    prot_shift = os.Os_core.geom.Geometry.prot_shift;
    attachments = Hashtbl.create 64;
    overrides = Hashtbl.create 64;
    override_counts = Hashtbl.create 64;
    domains = [];
    next_pd = 1;
  }

let new_domain t =
  let pd = Pd.of_int t.next_pd in
  t.next_pd <- t.next_pd + 1;
  t.domains <- pd :: t.domains;
  pd

let domain_list t = List.rev t.domains

let destroy_domain t pd =
  t.domains <- List.filter (fun d -> not (Pd.equal d pd)) t.domains;
  let i = Pd.to_int pd in
  let drop tbl =
    let keys =
      Hashtbl.fold
        (fun (d, k) _ acc -> if d = i then (d, k) :: acc else acc)
        tbl []
    in
    List.iter (Hashtbl.remove tbl) keys
  in
  drop t.attachments;
  drop t.overrides;
  drop t.override_counts

let prot_unit t va = va lsr t.prot_shift
let sid (seg : Segment.t) = Segment.id_to_int seg.Segment.id

let rights t pd va =
  match Hashtbl.find_opt t.overrides (Pd.to_int pd, prot_unit t va) with
  | Some r -> r
  | None -> (
      match Segment_table.find_by_va t.segments va with
      | None -> Rights.none
      | Some seg ->
          Option.value ~default:Rights.none
            (Hashtbl.find_opt t.attachments (Pd.to_int pd, sid seg)))

let set_attachment t pd seg r =
  Hashtbl.replace t.attachments (Pd.to_int pd, sid seg) r

let attachment t pd seg = Hashtbl.find_opt t.attachments (Pd.to_int pd, sid seg)

let remove_attachment t pd (seg : Segment.t) =
  let pdi = Pd.to_int pd in
  Hashtbl.remove t.attachments (pdi, sid seg);
  for unit = seg.Segment.base lsr t.prot_shift
      to (Segment.limit seg - 1) lsr t.prot_shift do
    Hashtbl.remove t.overrides (pdi, unit)
  done;
  Hashtbl.remove t.override_counts (pdi, sid seg)

let bump_count t pd va delta =
  match Segment_table.find_by_va t.segments va with
  | None -> ()
  | Some seg ->
      let key = (Pd.to_int pd, sid seg) in
      let c =
        delta + Option.value (Hashtbl.find_opt t.override_counts key) ~default:0
      in
      if c <= 0 then Hashtbl.remove t.override_counts key
      else Hashtbl.replace t.override_counts key c

let set_override t pd va r =
  let key = (Pd.to_int pd, prot_unit t va) in
  if not (Hashtbl.mem t.overrides key) then bump_count t pd va 1;
  Hashtbl.replace t.overrides key r

let clear_override t pd va =
  let key = (Pd.to_int pd, prot_unit t va) in
  if Hashtbl.mem t.overrides key then begin
    Hashtbl.remove t.overrides key;
    bump_count t pd va (-1)
  end

let has_overrides t pd seg =
  Hashtbl.mem t.override_counts (Pd.to_int pd, sid seg)

(* Only segments with a live override count are searched: an override
   granted while its segment was not live counts nowhere. *)
let override_units_in_segment t pd (seg : Segment.t) =
  let lo = seg.Segment.base lsr t.prot_shift in
  let hi = (Segment.limit seg - 1) lsr t.prot_shift in
  if not (has_overrides t pd seg) then []
  else
    List.filter
      (fun unit -> Hashtbl.mem t.overrides (Pd.to_int pd, unit))
      (List.init (hi - lo + 1) (fun i -> lo + i))

let page_has_override t va =
  List.exists
    (fun pd -> Hashtbl.mem t.overrides (Pd.to_int pd, prot_unit t va))
    t.domains

let domains_with_rights t va =
  List.filter_map
    (fun pd ->
      let r = rights t pd va in
      if Rights.equal r Rights.none then None else Some (pd, r))
    (domain_list t)
