(* The reference capability registry: minted checks in a Hashtbl of
   records keyed by the full 64-bit check. Draws checks from the same
   seeded stream as the production registry, so equal seeds mint equal
   capabilities. *)

open Sasos
open Sasos.Os

type record = { segment : Segment.id; rights : Rights.t }
type t = { rng : Util.Prng.t; checks : (int64, record) Hashtbl.t }

let create ?(seed = 0xca9) () =
  { rng = Util.Prng.create ~seed; checks = Hashtbl.create 64 }

let rec fresh_check t =
  let c = Util.Prng.bits64 t.rng in
  if Hashtbl.mem t.checks c then fresh_check t else c

let record t ~segment ~rights =
  let check = fresh_check t in
  Hashtbl.replace t.checks check { segment; rights };
  Capability.make ~segment ~rights ~check

let mint t (seg : Segment.t) rights = record t ~segment:seg.Segment.id ~rights

let validate t cap =
  match Hashtbl.find_opt t.checks (Capability.check cap) with
  | Some r ->
      Segment.id_equal r.segment (Capability.segment cap)
      && Rights.equal r.rights (Capability.rights cap)
  | None -> false

let restrict t cap rights =
  if not (validate t cap) then Error "invalid capability"
  else if not (Rights.subset rights (Capability.rights cap)) then
    Error "rights exceed the capability's bound"
  else Ok (record t ~segment:(Capability.segment cap) ~rights)

let revoke t cap = Hashtbl.remove t.checks (Capability.check cap)
