(** Pieces shared by the machine implementations: the optional unified
    second-level cache (§3.2.1's "TLB at the L2 controller" organization)
    and purge-sweep billing. A machine value is one processor's hardware
    over an OS that more cores can share
    ({!Sasos_os.System_intf.MACHINE.add_core}); inter-processor
    shootdowns are the smp layer's ([Smp.Make]). *)

open Sasos_hw
open Sasos_os

val charge_external : Os_core.t -> cycles:int -> page_ins:int ->
  page_outs:int -> unit
(** The shared implementation of
    {!Sasos_os.System_intf.SYSTEM.charge_external}: bump the paging
    counters and charge the cycles. Raises [Invalid_argument] on a
    negative amount. *)

val release_segment :
  Os_core.t -> Segment.t -> detach:(Sasos_addr.Pd.t -> unit) ->
  unmap_page:(Sasos_addr.Va.vpn -> unit) -> unit
(** The shared start of [destroy_segment]: [detach] every domain attached
    to the segment, [unmap_page] its resident pages and drop their disk
    copies. *)

val refuse_running : current:Sasos_addr.Pd.t -> Sasos_addr.Pd.t -> unit
(** The [destroy_domain] guard: @raise Invalid_argument when the domain
    is the one [current] on this core. *)

val charge_sweep : Os_core.t -> inspected:int -> removed:int -> unit
(** One purge sweep over a lookup structure (PLB, TLB): count
    [inspected] slots examined and [removed] entries dropped, and charge
    [Cost_model.purge_per_entry] per inspected slot. *)

val tlb_of_config : probe:Probe.t -> Config.t -> Tlb.t
val cache_of_config : probe:Probe.t -> Config.t -> Data_cache.t
(** A core's TLB and level-1 data cache as the configuration sizes them. *)

val l2_of_config : ?probe:Probe.t -> Config.t -> Data_cache.t option
(** A physically indexed, physically tagged unified L2 when
    [Config.l2_bytes > 0]. Immune to address-space discipline: never
    flushed on switches, only when a physical page is reclaimed. *)

val charge_fill : Os_core.t -> Data_cache.t option -> va:Sasos_addr.Va.t ->
  pa:int -> write:bool -> unit
(** Charge a level-1 line fill: from the L2 when present and hit
    (counting [l2_hits]), else from memory. *)

val flush_l1_page :
  Os_core.t -> Data_cache.t -> by_frame:bool -> Sasos_addr.Va.vpn -> unit
(** Drop a page's lines from a level-1 cache, counting flushed lines and
    charging per-line flush cost. [by_frame]: every space's lines of the
    page's frame while it is mapped; otherwise (or when unmapped) the
    virtual range in space 0, without allocating. *)

val flush_l2_page : Os_core.t -> Data_cache.t option -> Sasos_addr.Va.vpn -> unit
(** Drop a physical page's lines from the L2 when its frame is reclaimed;
    counts flushed lines and charges per-line flush cost. *)
