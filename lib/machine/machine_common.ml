(** Shared pieces of the machine implementations: the optional unified
    second-level cache (§3.2.1 pairs it with the off-critical-path TLB).

    The L2 is physically indexed and physically tagged, so it is immune to
    address-space discipline (no flushes on domain switches under any
    model) and is flushed only when a physical page is reclaimed. Level-1
    victim writebacks are charged but their contents are not installed in
    the L2 (a victim-path detail below the fidelity the experiments
    need). *)

open Sasos_hw
open Sasos_os

(* Workload-level costs the machine does not model (SYSTEM.charge_external):
   identical on every machine, so the shared helper lives here. *)
let charge_external (os : Os_core.t) ~cycles ~page_ins ~page_outs =
  if cycles < 0 || page_ins < 0 || page_outs < 0 then
    invalid_arg "charge_external: negative amount";
  let m = os.Os_core.metrics in
  m.Metrics.page_ins <- m.Metrics.page_ins + page_ins;
  m.Metrics.page_outs <- m.Metrics.page_outs + page_outs;
  Os_core.charge os cycles

let release_segment (os : Os_core.t) seg ~detach ~unmap_page =
  List.iter
    (fun pd -> if Option.is_some (Os_core.attachment os pd seg) then detach pd)
    (Os_core.domain_list os);
  List.iter
    (fun vpn ->
      if Os_core.is_resident os ~vpn then unmap_page vpn;
      Sasos_mem.Backing_store.drop os.Os_core.disk ~vpn)
    (Segment.vpns seg)

let refuse_running ~current pd =
  if Sasos_addr.Pd.equal current pd then
    invalid_arg "destroy_domain: domain is running"

(* A purge sweep over one private lookup structure: [inspected] slots
   examined (each charged), [removed] of them dropped. *)
let charge_sweep (os : Os_core.t) ~inspected ~removed =
  let m = os.Os_core.metrics in
  m.Metrics.entries_inspected <- m.Metrics.entries_inspected + inspected;
  m.Metrics.entries_purged <- m.Metrics.entries_purged + removed;
  Os_core.charge os (os.Os_core.cost.Cost_model.purge_per_entry * inspected)

(* The structures every core has besides its protection hardware. *)
let tlb_of_config ~probe (config : Config.t) =
  Tlb.create ~policy:config.Config.policy ~seed:config.Config.seed ~probe
    ~sets:config.Config.tlb_sets ~ways:config.Config.tlb_ways ()

let cache_of_config ~probe (config : Config.t) =
  Data_cache.create ~policy:config.Config.policy ~seed:config.Config.seed
    ~probe ~org:config.Config.cache_org ~size_bytes:config.Config.cache_bytes
    ~line_bytes:config.Config.cache_line ~ways:config.Config.cache_ways ()

let l2_of_config ?probe (config : Config.t) =
  if config.Config.l2_bytes = 0 then None
  else
    Some
      (Data_cache.create ~policy:config.Config.policy ~seed:config.Config.seed
         ?probe ~probe_as:Probe.L2_cache ~org:Data_cache.Pipt
         ~size_bytes:config.Config.l2_bytes ~line_bytes:config.Config.l2_line
         ~ways:config.Config.l2_ways ())

(* Charge a level-1 fill: from the L2 when present and hit, else from
   memory. *)
let charge_fill (os : Os_core.t) l2 ~va ~pa ~write =
  let c = os.Os_core.cost in
  let m = os.Os_core.metrics in
  match l2 with
  | None -> Os_core.charge os c.Cost_model.cache_miss
  | Some l2 ->
      if Data_cache.access_bits l2 ~space:0 ~va ~pa ~write = 0 then begin
        m.Metrics.l2_hits <- m.Metrics.l2_hits + 1;
        Os_core.charge os c.Cost_model.l2_hit
      end
      else begin
        m.Metrics.l2_misses <- m.Metrics.l2_misses + 1;
        Os_core.charge os c.Cost_model.cache_miss
      end

(* Drop a page's lines from a level-1 cache. By frame, every space's
   copy goes (a space-tagged VIVT cache may hold the page once per
   space); by virtual range, space 0's, without allocating. *)
let flush_l1_page (os : Os_core.t) cache ~by_frame vpn =
  let g = os.Os_core.geom in
  let pfn = if by_frame then Os_core.pfn_int os ~vpn else -1 in
  let flushed =
    if pfn >= 0 then
      fst
        (Data_cache.flush_pa_page cache ~pfn
           ~page_shift:g.Sasos_addr.Geometry.page_shift)
    else
      let lo = Sasos_addr.Va.va_of_vpn g vpn in
      Data_cache.flush_va_range_count cache ~space:0 ~lo
        ~hi:(lo + Sasos_addr.Geometry.page_size g)
  in
  let m = os.Os_core.metrics in
  m.Metrics.cache_lines_flushed <- m.Metrics.cache_lines_flushed + flushed;
  Os_core.charge os (os.Os_core.cost.Cost_model.cache_line_flush * flushed)

(* Drop a physical page from the L2 when its frame is reclaimed. *)
let flush_l2_page (os : Os_core.t) l2 vpn =
  match (l2, Os_core.pfn_int os ~vpn) with
  | Some l2, pfn when pfn >= 0 ->
      let flushed, _ =
        Data_cache.flush_pa_page l2 ~pfn
          ~page_shift:os.Os_core.geom.Sasos_addr.Geometry.page_shift
      in
      let m = os.Os_core.metrics in
      m.Metrics.cache_lines_flushed <- m.Metrics.cache_lines_flushed + flushed;
      Os_core.charge os (os.Os_core.cost.Cost_model.cache_line_flush * flushed)
  | _ -> ()
