(** Shared operating-system state: the ground truth that all three machine
    models consult from their fault handlers.

    Holds the global segment table, the single set of virtual-to-physical
    translations (inverted page table), physical memory, backing store, and
    the protection database: per-(domain, segment) attachment rights plus
    per-(domain, protection-page) overrides. The machines differ in the
    hardware structures they keep coherent with this truth, never in the
    truth itself — which is what makes the cross-machine equivalence
    invariant testable. *)

open Sasos_addr
open Sasos_hw
open Sasos_mem

type store
(** The protection database — per-(domain, segment) attachment rights,
    per-(domain, protection-unit) overrides, and override counts — on
    flat {!Sasos_util.Flat_tab} int lanes whose ground-truth probes never
    allocate, plus a dense liveness byte map indexed by pd and a dense
    segment-id index of candidate domains, which keep
    {!domains_with_rights} and {!page_has_override} off O(#domains) scans
    at million-domain geometries. *)

type t = {
  config : Config.t;
  geom : Geometry.t;
  cost : Cost_model.t;
  metrics : Metrics.t;
      (** one record for the machine: every core over this OS charges
          into it *)
  segments : Segment_table.t;
  frames : Frame_allocator.t;
  ipt : Inverted_page_table.t;
  disk : Backing_store.t;
  store : store;  (** the protection truth (see {!store}) *)
  resident_fifo : Sasos_util.Int_queue.t;
      (** eviction order when memory fills; residency itself is IPT
          membership *)
  mutable next_pd : int;
  mutable flushes : (Va.vpn -> unit) list;  (** per core: see {!add_core} *)
  rng : Sasos_util.Prng.t;
  probe : Probe.t;
      (** gauge sink of the first core's hardware structures; read by the
          observability sampler. Cores added later bring their own. *)
}

val create : Config.t -> t

val add_core : t -> flush:(Va.vpn -> unit) -> unit
(** Register one more core over this OS. [flush vpn] drops the page from
    that core's private structures (its data cache and TLB); {!unmap}
    runs it on every core before the frame is freed, so an eviction or an
    unmap on one core reaches them all. *)

(** {2 Domains} *)

val new_domain : t -> Pd.t
val domain_list : t -> Pd.t list
(** All live (created, not destroyed) domains, oldest first. *)

val destroy_domain : t -> Pd.t -> unit
(** Remove the domain and all of its attachments and overrides from the
    truth. Hardware coherence, and refusing to destroy a domain a core is
    running, are the machine's job. *)

(** {2 Protection truth} *)

val prot_unit : t -> Va.t -> int
(** The protection-grain unit index containing [va]. *)

val rights : t -> Pd.t -> Va.t -> Rights.t
(** Ground-truth rights: the override for the protection unit if present,
    else the attachment rights of the segment containing [va], else none. *)

val set_attachment : t -> Pd.t -> Segment.t -> Rights.t -> unit
val remove_attachment : t -> Pd.t -> Segment.t -> unit
(** Also clears the domain's per-page overrides within the segment. *)

val attachment : t -> Pd.t -> Segment.t -> Rights.t option

val set_override : t -> Pd.t -> Va.t -> Rights.t -> unit
(** Per-domain, per-protection-unit rights for the unit containing [va]. *)

val clear_override : t -> Pd.t -> Va.t -> unit

val page_has_override : t -> Va.t -> bool
(** True when any domain has a live override on the protection unit
    containing [va]. *)

val domains_with_rights : t -> Va.t -> (Pd.t * Rights.t) list
(** Every domain whose ground-truth rights on [va] are non-empty (consults
    only created domains). Oldest first. *)

val has_overrides : t -> Pd.t -> Segment.t -> bool
(** Whether the domain has any per-page overrides inside the segment —
    when false, one coarse PLB entry can cover the whole segment (§4.3). *)

val override_units_in_segment : t -> Pd.t -> Segment.t -> int list
(** Protection units inside the segment for which the domain has an
    override. *)

(** {2 Memory} *)

val charge : t -> int -> unit
(** Add cycles to the metrics. *)

val kernel_entry : t -> unit
(** Count a trap into the kernel and charge its cost. *)

val ensure_mapped : t -> vpn:Va.vpn -> int
(** Return the page's frame, paging it in (zero-fill or from disk) if
    needed. When physical memory is full, evicts the oldest resident page
    first through {!unmap}. Charges page-in / page-out costs.
    @raise Failure if no frame can be found. *)

val unmap : t -> vpn:Va.vpn -> write_back:bool -> unit
(** Flush the page from every core (the [flush] of each {!add_core}),
    then remove the translation (if mapped), optionally writing a dirty
    page to the backing store, and free the frame. *)

val is_resident : t -> vpn:Va.vpn -> bool

val pfn_int : t -> vpn:Va.vpn -> int
(** Frame number of a mapped page, or [-1]. Never allocates. *)

val pa_of : t -> Va.t -> int option
(** Physical byte address of a mapped virtual address. *)

val pa_int : t -> Va.t -> int
(** Physical byte address, or [-1] if unmapped. Never allocates — the
    hot-loop form of {!pa_of}. *)

val mark_dirty : t -> vpn:Va.vpn -> unit
