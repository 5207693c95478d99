open Sasos_addr
open Sasos_hw

type t = {
  geom : Geometry.t;
  cost : Cost_model.t;
  seed : int;
  policy : Replacement.t;
  tlb_sets : int;
  tlb_ways : int;
  plb_sets : int;
  plb_ways : int;
  plb_shifts : int list;
  pg_entries : int;
  pg_eager_reload : int;
  pg_lock_policy : [ `Shared | `Private ];
  cache_org : Data_cache.org;
  cache_bytes : int;
  cache_line : int;
  cache_ways : int;
  l2_bytes : int;
  l2_line : int;
  l2_ways : int;
  frames : int;
  pk_keys : int;
  pk_policy : [ `Recycle | `Trap ];
}

let default =
  {
    geom = Geometry.default;
    cost = Cost_model.default;
    seed = 42;
    policy = Replacement.Lru;
    tlb_sets = 1;
    tlb_ways = 64;
    plb_sets = 1;
    plb_ways = 64;
    plb_shifts = [ Geometry.default.Geometry.prot_shift ];
    pg_entries = 16;
    pg_eager_reload = 0;
    pg_lock_policy = `Shared;
    cache_org = Data_cache.Vivt;
    cache_bytes = 64 * 1024;
    cache_line = 32;
    cache_ways = 2;
    l2_bytes = 0;
    l2_line = 64;
    l2_ways = 4;
    frames = 64 * 1024;
    pk_keys = 8;
    pk_policy = `Recycle;
  }

let v ?(geom = default.geom) ?(cost = default.cost) ?(seed = default.seed)
    ?(policy = default.policy) ?(tlb_sets = default.tlb_sets)
    ?(tlb_ways = default.tlb_ways) ?(plb_sets = default.plb_sets)
    ?(plb_ways = default.plb_ways) ?plb_shifts
    ?(pg_entries = default.pg_entries)
    ?(pg_eager_reload = default.pg_eager_reload)
    ?(pg_lock_policy = default.pg_lock_policy)
    ?(cache_org = default.cache_org) ?(cache_bytes = default.cache_bytes)
    ?(cache_line = default.cache_line) ?(cache_ways = default.cache_ways)
    ?(l2_bytes = default.l2_bytes) ?(l2_line = default.l2_line)
    ?(l2_ways = default.l2_ways) ?(frames = default.frames)
    ?(pk_keys = default.pk_keys) ?(pk_policy = default.pk_policy) () =
  let plb_shifts =
    match plb_shifts with
    | Some s -> s
    | None -> [ geom.Geometry.prot_shift ]
  in
  (* Frame numbers must fit the physical address bits: pfn < 2^(pa_bits -
     page_shift).  Surfaced at tens-of-millions-of-frames scale geometries,
     where a too-small pa_bits would silently wrap pfn lanes in the packed
     TLB entry (31-bit pfn lane) and the packed IPT. *)
  let pfn_space = 1 lsl (geom.Geometry.pa_bits - geom.Geometry.page_shift) in
  if frames > pfn_space then
    invalid_arg
      (Printf.sprintf
         "Config.v: %d frames exceed the %d-bit physical address space \
          (max %d frames of 2^%d bytes)"
         frames geom.Geometry.pa_bits pfn_space geom.Geometry.page_shift);
  {
    geom;
    cost;
    seed;
    policy;
    tlb_sets;
    tlb_ways;
    plb_sets;
    plb_ways;
    plb_shifts;
    pg_entries;
    pg_eager_reload;
    pg_lock_policy;
    cache_org;
    cache_bytes;
    cache_line;
    cache_ways;
    l2_bytes;
    l2_line;
    l2_ways;
    frames;
    pk_keys;
    pk_policy;
  }
