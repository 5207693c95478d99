open Sasos_util

(* Keyed like the packed inverted page table: the vpn is split across the
   two Flat_tab key lanes (k1 = low 30 bits, always non-negative; k2 =
   high bits) so 49-bit vpns keep full precision.  Page-out sits on the
   page-replacement path, where a hashtable bucket or option per write
   would break the zero-allocation eviction discipline. *)

type t = { table : Flat_tab.t; mutable bytes : int }

let vpn_k1 vpn = vpn land 0x3FFF_FFFF
let vpn_k2 vpn = vpn lsr 30

let create () = { table = Flat_tab.create (); bytes = 0 }

let write t ~vpn ~bytes_used =
  let k1 = vpn_k1 vpn and k2 = vpn_k2 vpn in
  let old = Flat_tab.find t.table ~k1 ~k2 in
  if old >= 0 then t.bytes <- t.bytes - old;
  Flat_tab.replace t.table ~k1 ~k2 ~v:bytes_used;
  t.bytes <- t.bytes + bytes_used

let read t ~vpn =
  let b = Flat_tab.find t.table ~k1:(vpn_k1 vpn) ~k2:(vpn_k2 vpn) in
  if b < 0 then None else Some b

let drop t ~vpn =
  let k1 = vpn_k1 vpn and k2 = vpn_k2 vpn in
  let old = Flat_tab.find t.table ~k1 ~k2 in
  if old >= 0 then begin
    Flat_tab.remove t.table ~k1 ~k2;
    t.bytes <- t.bytes - old
  end

let resident t ~vpn =
  Flat_tab.mem t.table ~k1:(vpn_k1 vpn) ~k2:(vpn_k2 vpn)

let pages t = Flat_tab.length t.table
let bytes_used t = t.bytes
