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

(* A purge sweep over one private lookup structure: [inspected] slots
   examined (each charged), [removed] of them dropped. *)
let charge_sweep (os : Os_core.t) ~inspected ~removed =
  let m = os.Os_core.metrics in
  m.Metrics.entries_inspected <- m.Metrics.entries_inspected + inspected;
  m.Metrics.entries_purged <- m.Metrics.entries_purged + removed;
  Os_core.charge os (os.Os_core.cost.Cost_model.purge_per_entry * inspected)

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

(* Drop a physical page from the L2 when its frame is reclaimed. *)
let flush_l2_page (os : Os_core.t) l2 vpn =
  match (l2, Os_core.pfn_of os ~vpn) with
  | Some l2, Some pfn ->
      let flushed, _ =
        Data_cache.flush_pa_page l2 ~pfn
          ~page_shift:os.Os_core.geom.Sasos_addr.Geometry.page_shift
      in
      let m = os.Os_core.metrics in
      m.Metrics.cache_lines_flushed <- m.Metrics.cache_lines_flushed + flushed;
      Os_core.charge os (os.Os_core.cost.Cost_model.cache_line_flush * flushed)
  | _ -> ()
