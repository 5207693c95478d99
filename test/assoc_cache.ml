open Sasos.Hw

module type KEY = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

module type S = sig
  type key
  type 'v t

  val create :
    ?policy:Replacement.t -> ?seed:int -> sets:int -> ways:int -> unit -> 'v t

  val sets : 'v t -> int
  val ways : 'v t -> int
  val capacity : 'v t -> int
  val length : 'v t -> int
  val find : 'v t -> key -> 'v option
  val peek : 'v t -> key -> 'v option
  val mem : 'v t -> key -> bool
  val insert : 'v t -> key -> 'v -> (key * 'v) option
  val update : 'v t -> key -> ('v -> 'v) -> bool
  val remove : 'v t -> key -> bool
  val purge : 'v t -> (key -> 'v -> bool) -> int * int
  val clear : 'v t -> int
  val iter : (key -> 'v -> unit) -> 'v t -> unit
  val fold : (key -> 'v -> 'a -> 'a) -> 'v t -> 'a -> 'a
  val hits : 'v t -> int
  val misses : 'v t -> int
  val evictions : 'v t -> int
  val reset_stats : 'v t -> unit
end

module Make (K : KEY) : S with type key = K.t = struct
  type key = K.t

  type 'v slot = {
    skey : key;
    mutable value : 'v;
    mutable stamp : int; (* recency for LRU, insertion order for FIFO *)
  }

  type 'v t = {
    policy : Replacement.t;
    (* splitmix int state for Random victim draws: allocation-free and
       per-instance, so equal seeds give equal victim sequences (the
       production Packed_cache steps an identical state) *)
    mutable rand : int;
    table : 'v slot option array array; (* [set].[way] *)
    mutable tick : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable length : int;
  }

  let create ?(policy = Replacement.Lru) ?(seed = 0x5a505) ~sets ~ways () =
    if sets < 1 || ways < 1 then
      invalid_arg "Assoc_cache.create: sets and ways must be >= 1";
    {
      policy;
      rand = Sasos.Util.Prng.Split.init seed;
      table = Array.init sets (fun _ -> Array.make ways None);
      tick = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
      length = 0;
    }

  let sets t = Array.length t.table
  let ways t = Array.length t.table.(0)
  let capacity t = sets t * ways t
  let length t = t.length

  let set_of t k =
    let h = K.hash k in
    (* mix to avoid pathological low-bit aliasing of simple int keys *)
    let h = h lxor (h lsr 16) in
    (* [abs h] would be wrong here: [abs min_int = min_int], so a mixed
       hash of [min_int] yields a negative set index. Masking the sign bit
       keeps the index in [0, max_int]. *)
    (h land max_int) mod sets t

  let find_slot t k =
    let row = t.table.(set_of t k) in
    let rec go i =
      if i >= Array.length row then None
      else
        match row.(i) with
        | Some s when K.equal s.skey k -> Some s
        | _ -> go (i + 1)
    in
    go 0

  let tick t =
    t.tick <- t.tick + 1;
    t.tick

  let find t k =
    match find_slot t k with
    | Some s ->
        t.hits <- t.hits + 1;
        if t.policy = Replacement.Lru then s.stamp <- tick t;
        Some s.value
    | None ->
        t.misses <- t.misses + 1;
        None

  let peek t k = Option.map (fun s -> s.value) (find_slot t k)
  let mem t k = Option.is_some (find_slot t k)

  let victim_index t row =
    (* precondition: row is full *)
    match t.policy with
    | Replacement.Random ->
        t.rand <- Sasos.Util.Prng.Split.next t.rand;
        Sasos.Util.Prng.Split.draw t.rand ~bound:(Array.length row)
    | Replacement.Lru | Replacement.Fifo ->
        let best = ref 0 and best_stamp = ref max_int in
        Array.iteri
          (fun i slot ->
            match slot with
            | Some s when s.stamp < !best_stamp ->
                best := i;
                best_stamp := s.stamp
            | Some _ | None -> ())
          row;
        !best

  let insert t k v =
    match find_slot t k with
    | Some s ->
        s.value <- v;
        (* re-installing an entry is a touch under LRU; FIFO keeps the
           original insertion order *)
        if t.policy = Replacement.Lru then s.stamp <- tick t;
        None
    | None -> begin
        let row = t.table.(set_of t k) in
        let free =
          let rec go i =
            if i >= Array.length row then None
            else match row.(i) with None -> Some i | Some _ -> go (i + 1)
          in
          go 0
        in
        let fresh = { skey = k; value = v; stamp = tick t } in
        match free with
        | Some i ->
            row.(i) <- Some fresh;
            t.length <- t.length + 1;
            None
        | None ->
            let i = victim_index t row in
            let old = row.(i) in
            row.(i) <- Some fresh;
            t.evictions <- t.evictions + 1;
            Option.map (fun s -> (s.skey, s.value)) old
      end

  let update t k f =
    match find_slot t k with
    | Some s ->
        s.value <- f s.value;
        true
    | None -> false

  let remove t k =
    let row = t.table.(set_of t k) in
    let rec go i =
      if i >= Array.length row then false
      else
        match row.(i) with
        | Some s when K.equal s.skey k ->
            row.(i) <- None;
            t.length <- t.length - 1;
            true
        | _ -> go (i + 1)
    in
    go 0

  let purge t p =
    let inspected = ref 0 and removed = ref 0 in
    Array.iter
      (fun row ->
        Array.iteri
          (fun i slot ->
            match slot with
            | Some s ->
                incr inspected;
                if p s.skey s.value then begin
                  row.(i) <- None;
                  t.length <- t.length - 1;
                  incr removed
                end
            | None -> ())
          row)
      t.table;
    (!inspected, !removed)

  let clear t =
    let dropped = t.length in
    Array.iter (fun row -> Array.fill row 0 (Array.length row) None) t.table;
    t.length <- 0;
    dropped

  let iter f t =
    Array.iter
      (fun row ->
        Array.iter (function Some s -> f s.skey s.value | None -> ()) row)
      t.table

  let fold f t init =
    let acc = ref init in
    iter (fun k v -> acc := f k v !acc) t;
    !acc

  let hits t = t.hits
  let misses t = t.misses
  let evictions t = t.evictions

  let reset_stats t =
    t.hits <- 0;
    t.misses <- 0;
    t.evictions <- 0
end
