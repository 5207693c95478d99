open Sasos_util
open Sasos_addr

(* Check index: the 64-bit check value splits across Flat_tab's two
   key lanes with full precision — k1 = low 30 bits (non-negative as the
   lane requires), k2 = bits 30..63 (34 bits, well inside a native int).
   The value packs the minted record as [seg_id lsl 3 lor rights]. *)
let check_k1 c = Int64.to_int c land 0x3FFF_FFFF
let check_k2 c = Int64.to_int (Int64.shift_right_logical c 30)

type t = {
  rng : Prng.t;
  checks : Flat_tab.t;
  names : (string, Capability.t) Hashtbl.t;
  segments_of : (int, Segment.t) Hashtbl.t;
      (* segments seen at mint time, for attach *)
}

let create ?(seed = 0xca9) () =
  {
    rng = Prng.create ~seed;
    checks = Flat_tab.create ();
    names = Hashtbl.create 64;
    segments_of = Hashtbl.create 64;
  }

let mem_check t c = Flat_tab.mem t.checks ~k1:(check_k1 c) ~k2:(check_k2 c)

let record_check t c ~segment ~rights =
  Flat_tab.replace t.checks ~k1:(check_k1 c) ~k2:(check_k2 c)
    ~v:((Segment.id_to_int segment lsl 3) lor Rights.to_int rights)

let fresh_check t =
  (* sparse: collisions are vanishingly unlikely, but loop anyway *)
  let rec go () =
    let c = Prng.bits64 t.rng in
    if mem_check t c then go () else c
  in
  go ()

let mint t (seg : Segment.t) rights =
  let check = fresh_check t in
  record_check t check ~segment:seg.Segment.id ~rights;
  Hashtbl.replace t.segments_of (Segment.id_to_int seg.Segment.id) seg;
  Capability.make ~segment:seg.Segment.id ~rights ~check

let validate t cap =
  let c = Capability.check cap in
  let v = Flat_tab.find t.checks ~k1:(check_k1 c) ~k2:(check_k2 c) in
  v >= 0
  && v lsr 3 = Segment.id_to_int (Capability.segment cap)
  && v land 7 = Rights.to_int (Capability.rights cap)

let restrict t cap rights =
  if not (validate t cap) then Error "invalid capability"
  else if not (Rights.subset rights (Capability.rights cap)) then
    Error "rights exceed the capability's bound"
  else begin
    let check = fresh_check t in
    record_check t check ~segment:(Capability.segment cap) ~rights;
    Ok (Capability.make ~segment:(Capability.segment cap) ~rights ~check)
  end

let revoke t cap =
  let c = Capability.check cap in
  Flat_tab.remove t.checks ~k1:(check_k1 c) ~k2:(check_k2 c)

let attach t sys pd cap rights =
  if not (validate t cap) then Error "invalid capability"
  else if not (Rights.subset rights (Capability.rights cap)) then
    Error "rights exceed the capability's bound"
  else begin
    match
      Hashtbl.find_opt t.segments_of
        (Segment.id_to_int (Capability.segment cap))
    with
    | None -> Error "segment no longer exists"
    | Some seg ->
        System_ops.attach sys pd seg rights;
        Ok ()
  end

let publish t name cap = Hashtbl.replace t.names name cap
let lookup t name = Hashtbl.find_opt t.names name
let unpublish t name = Hashtbl.remove t.names name
let names t = Hashtbl.fold (fun k _ acc -> k :: acc) t.names []
