let absent = -1

(* Free slots carry [free_key] in their keys1 lane instead of a separate
   validity byte array: one fewer load per way on every scan. [free_key]
   is [min_int], which no caller can store ([insert] rejects negative
   k1), so a free slot can never alias a live key. *)
let free_key = min_int

type t = {
  policy : Replacement.t;
  (* splitmix int state for Random victim draws; steps exactly like the
     boxed reference model's [rand] so both evict the same ways *)
  mutable rand : int;
  sets : int;
  ways : int;
  keys1 : int array; (* flattened [set * ways + way]; [free_key] = empty *)
  keys2 : int array;
  vals : int array;
  stamps : int array; (* recency for LRU, insertion order for FIFO *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable length : int;
  mutable ev_k1 : int;
  mutable ev_k2 : int;
  mutable ev_v : int;
  mutable ev_some : bool;
}

let create ?(policy = Replacement.Lru) ?(seed = 0x5a505) ~sets ~ways () =
  if sets < 1 || ways < 1 then
    invalid_arg "Packed_cache.create: sets and ways must be >= 1";
  let n = sets * ways in
  {
    policy;
    rand = Sasos_util.Prng.Split.init seed;
    sets;
    ways;
    keys1 = Array.make n free_key;
    keys2 = Array.make n 0;
    vals = Array.make n 0;
    stamps = Array.make n 0;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    length = 0;
    ev_k1 = 0;
    ev_k2 = 0;
    ev_v = 0;
    ev_some = false;
  }

let capacity t = t.sets * t.ways
let length t = t.length

(* Mix, then mask the sign bit — [abs] would map a mixed hash of
   [min_int] to a negative set index. *)
let set_of_hash sets h =
  let h = h lxor (h lsr 16) in
  (h land max_int) mod sets

let base t hash = set_of_hash t.sets hash * t.ways

(* The scans below are top-level tail-recursive functions, not local
   closures or ref cells: without flambda a `let rec` capturing its
   environment allocates a closure block and a `ref` allocates a mutable
   cell, either of which would break the zero-allocation fast path. *)

(* unsafe accesses: [j < limit <= sets * ways] by construction.
   The [int array] annotations matter: left generic, these helpers are
   compiled polymorphically — every key comparison becomes a
   [caml_equal] C call and every load a generic (float-tag-checked)
   array access, an order of magnitude slower. *)
(* branchless key compare: one fused test per way instead of a validity
   check plus two equality branches (free slots fail on keys1 = free_key) *)
let rec scan_match (keys1 : int array) (keys2 : int array) (k1 : int)
    (k2 : int) j limit =
  if j >= limit then -1
  else if
    Array.unsafe_get keys1 j lxor k1 lor (Array.unsafe_get keys2 j lxor k2)
    = 0
  then j
  else scan_match keys1 keys2 k1 k2 (j + 1) limit

let rec scan_free (keys1 : int array) j limit =
  if j >= limit then -1
  else if Array.unsafe_get keys1 j = free_key then j
  else scan_free keys1 (j + 1) limit

(* ascending scan with strict <, so the first minimal stamp wins *)
let rec scan_min_stamp (stamps : int array) j limit best best_stamp =
  if j >= limit then best
  else
    let s = stamps.(j) in
    if s < best_stamp then scan_min_stamp stamps (j + 1) limit j s
    else scan_min_stamp stamps (j + 1) limit best best_stamp

(* slot index of (k1, k2) in [hash]'s set, -1 when absent *)
let index t ~hash ~k1 ~k2 =
  let b = base t hash in
  scan_match t.keys1 t.keys2 k1 k2 b (b + t.ways)

(* pattern match, not [=]: polymorphic equality on the variant is a
   runtime call on the hottest path *)
let touch t j =
  match t.policy with
  | Replacement.Lru ->
      t.tick <- t.tick + 1;
      t.stamps.(j) <- t.tick
  | Replacement.Fifo | Replacement.Random -> ()

let find t ~hash ~k1 ~k2 =
  let j = index t ~hash ~k1 ~k2 in
  if j >= 0 then begin
    t.hits <- t.hits + 1;
    touch t j;
    Array.unsafe_get t.vals j
  end
  else begin
    t.misses <- t.misses + 1;
    absent
  end

let peek t ~hash ~k1 ~k2 =
  let j = index t ~hash ~k1 ~k2 in
  if j >= 0 then Array.unsafe_get t.vals j else absent

let mem t ~hash ~k1 ~k2 = index t ~hash ~k1 ~k2 >= 0

let victim t base =
  (* precondition: the row is full, so every slot is valid *)
  match t.policy with
  | Replacement.Random ->
      t.rand <- Sasos_util.Prng.Split.next t.rand;
      base + Sasos_util.Prng.Split.draw t.rand ~bound:t.ways
  | Replacement.Lru | Replacement.Fifo ->
      scan_min_stamp t.stamps base (base + t.ways) base max_int

let insert t ~hash ~k1 ~k2 v =
  if v < 0 then invalid_arg "Packed_cache.insert: payload must be >= 0";
  if k1 < 0 then invalid_arg "Packed_cache.insert: key1 must be >= 0";
  let b = base t hash in
  let j = scan_match t.keys1 t.keys2 k1 k2 b (b + t.ways) in
  if j >= 0 then begin
    t.vals.(j) <- v;
    (* re-installing is a touch under LRU; FIFO keeps insertion order *)
    touch t j;
    t.ev_some <- false
  end
  else begin
    let free = scan_free t.keys1 b (b + t.ways) in
    (* the fresh stamp is drawn before the victim choice *)
    t.tick <- t.tick + 1;
    let stamp = t.tick in
    let j =
      if free >= 0 then begin
        t.length <- t.length + 1;
        t.ev_some <- false;
        free
      end
      else begin
        let j = victim t b in
        t.ev_k1 <- t.keys1.(j);
        t.ev_k2 <- t.keys2.(j);
        t.ev_v <- t.vals.(j);
        t.ev_some <- true;
        t.evictions <- t.evictions + 1;
        j
      end
    in
    t.keys1.(j) <- k1;
    t.keys2.(j) <- k2;
    t.vals.(j) <- v;
    t.stamps.(j) <- stamp
  end

let last_eviction t =
  if t.ev_some then Some (t.ev_k1, t.ev_k2, t.ev_v) else None

let set_masked t ~hash ~k1 ~k2 ~mask ~bits =
  let j = index t ~hash ~k1 ~k2 in
  if j >= 0 then begin
    t.vals.(j) <- (t.vals.(j) land lnot mask) lor bits;
    true
  end
  else false

let set t ~hash ~k1 ~k2 v =
  if v < 0 then invalid_arg "Packed_cache.set: payload must be >= 0";
  set_masked t ~hash ~k1 ~k2 ~mask:(-1) ~bits:v

let remove t ~hash ~k1 ~k2 =
  let j = index t ~hash ~k1 ~k2 in
  if j >= 0 then begin
    t.keys1.(j) <- free_key;
    t.length <- t.length - 1;
    true
  end
  else false

let purge t pred =
  let inspected = ref 0 and removed = ref 0 in
  for j = 0 to (t.sets * t.ways) - 1 do
    if t.keys1.(j) <> free_key then begin
      incr inspected;
      if pred t.keys1.(j) t.keys2.(j) t.vals.(j) then begin
        t.keys1.(j) <- free_key;
        t.length <- t.length - 1;
        incr removed
      end
    end
  done;
  (!inspected, !removed)

let rewrite t f =
  let changed = ref 0 in
  for j = 0 to (t.sets * t.ways) - 1 do
    if t.keys1.(j) <> free_key then begin
      let v = t.vals.(j) in
      let v' = f t.keys1.(j) t.keys2.(j) v in
      if v' <> v then begin
        if v' < 0 then invalid_arg "Packed_cache.rewrite: payload must be >= 0";
        t.vals.(j) <- v';
        incr changed
      end
    end
  done;
  !changed

let clear t =
  let dropped = t.length in
  Array.fill t.keys1 0 (Array.length t.keys1) free_key;
  t.length <- 0;
  dropped

let iter f t =
  for j = 0 to (t.sets * t.ways) - 1 do
    if t.keys1.(j) <> free_key then f t.keys1.(j) t.keys2.(j) t.vals.(j)
  done

let fold f t init =
  let acc = ref init in
  iter (fun k1 k2 v -> acc := f k1 k2 v !acc) t;
  !acc

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0
