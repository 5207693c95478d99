(* The boxed reference inverted page table: a Hashtbl of mutable mapping
   records. test_os_store.ml drives it beside the production int-lane
   table and compares the packed bits after every operation. *)

type mapping = { pfn : int; mutable dirty : bool; mutable referenced : bool }
type t = (int, mapping) Hashtbl.t

let create () : t = Hashtbl.create 64

let map t ~vpn ~pfn =
  if Hashtbl.mem t vpn then
    invalid_arg "Inverted_page_table.map: page already mapped";
  Hashtbl.replace t vpn { pfn; dirty = false; referenced = false }

let bits m =
  (m.pfn lsl 2) lor (if m.referenced then 2 else 0) lor if m.dirty then 1 else 0

let find_bits t ~vpn =
  match Hashtbl.find_opt t vpn with None -> -1 | Some m -> bits m

let unmap_bits t ~vpn =
  let b = find_bits t ~vpn in
  Hashtbl.remove t vpn;
  b

let set_dirty t ~vpn =
  Option.iter (fun m -> m.dirty <- true) (Hashtbl.find_opt t vpn)

let set_referenced t ~vpn =
  Option.iter (fun m -> m.referenced <- true) (Hashtbl.find_opt t vpn)

let is_mapped t ~vpn = Hashtbl.mem t vpn
let mapped_count t = Hashtbl.length t
