(* The Packed_cache API over the boxed Assoc_cache model: the oracle the
   lockstep property in test_packed_cache.ml drives beside the production
   int lanes. The key record carries the caller's hash so set placement
   is decided by exactly the same value on both sides. *)

module Key = struct
  type t = { h : int; k1 : int; k2 : int }

  let equal a b = a.k1 = b.k1 && a.k2 = b.k2
  let hash k = k.h
end

module C = Assoc_cache.Make (Key)

type t = { c : int C.t; mutable last : (int * int * int) option }

let absent = -1

let create ?policy ?seed ~sets ~ways () =
  { c = C.create ?policy ?seed ~sets ~ways (); last = None }

let key hash k1 k2 = { Key.h = hash; k1; k2 }

let find t ~hash ~k1 ~k2 =
  match C.find t.c (key hash k1 k2) with Some v -> v | None -> absent

let insert t ~hash ~k1 ~k2 v =
  if v < 0 then invalid_arg "Packed_cache.insert: payload must be >= 0";
  t.last <-
    Option.map
      (fun (k, ov) -> (k.Key.k1, k.Key.k2, ov))
      (C.insert t.c (key hash k1 k2) v)

let last_eviction t = t.last

let set_masked t ~hash ~k1 ~k2 ~mask ~bits =
  C.update t.c (key hash k1 k2) (fun v -> (v land lnot mask) lor bits)

let set t ~hash ~k1 ~k2 v = set_masked t ~hash ~k1 ~k2 ~mask:(-1) ~bits:v
let remove t ~hash ~k1 ~k2 = C.remove t.c (key hash k1 k2)
let purge t pred = C.purge t.c (fun k v -> pred k.Key.k1 k.Key.k2 v)
let clear t = C.clear t.c
let fold f t init = C.fold (fun k v acc -> f k.Key.k1 k.Key.k2 v acc) t.c init
let length t = C.length t.c
let hits t = C.hits t.c
let misses t = C.misses t.c
let evictions t = C.evictions t.c
