(** Pieces shared by the machine implementations: the optional unified
    second-level cache (§3.2.1's "TLB at the L2 controller" organization)
    and purge-sweep billing. Every machine here models one processor;
    inter-processor shootdowns are the smp layer's ([Smp.Make]). *)

open Sasos_hw
open Sasos_os

val charge_external : Os_core.t -> cycles:int -> page_ins:int ->
  page_outs:int -> unit
(** The shared implementation of
    {!Sasos_os.System_intf.SYSTEM.charge_external}: bump the paging
    counters and charge the cycles. Raises [Invalid_argument] on a
    negative amount. *)

val charge_sweep : Os_core.t -> inspected:int -> removed:int -> unit
(** One purge sweep over a lookup structure (PLB, TLB): count
    [inspected] slots examined and [removed] entries dropped, and charge
    [Cost_model.purge_per_entry] per inspected slot. *)

val l2_of_config : ?probe:Probe.t -> Config.t -> Data_cache.t option
(** A physically indexed, physically tagged unified L2 when
    [Config.l2_bytes > 0]. Immune to address-space discipline: never
    flushed on switches, only when a physical page is reclaimed. *)

val charge_fill : Os_core.t -> Data_cache.t option -> va:Sasos_addr.Va.t ->
  pa:int -> write:bool -> unit
(** Charge a level-1 line fill: from the L2 when present and hit
    (counting [l2_hits]), else from memory. *)

val flush_l2_page : Os_core.t -> Data_cache.t option -> Sasos_addr.Va.vpn -> unit
(** Drop a physical page's lines from the L2 when its frame is reclaimed;
    counts flushed lines and charges per-line flush cost. *)
