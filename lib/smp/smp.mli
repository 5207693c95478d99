(** Multicore machine layer: N cores over one OS, with an
    inter-processor shootdown protocol.

    The paper models a single CPU; on a multiprocessor every
    protection revocation becomes a TLB/PLB shootdown whose cost scales
    with core count and purge policy (§4.1.3). The machine models are
    single-core, so this layer is the only one that counts shootdowns
    and bills IPIs. {!Make} lifts any machine model to [N] cores: one OS
    half (truth, translations, frames, disk and the model's own tables)
    under [N] per-core hardware halves
    ({!Sasos_os.System_intf.MACHINE.add_core}). Every operation runs
    once, on the core the deterministic interleaving scheduler picked;
    after a revocation the other cores run the shootdown handler
    ({!Sasos_os.System_intf.MACHINE.purge}), which drops their entries
    for the revoked range and bills its sweep. All cores charge into the
    OS's one {!Sasos_hw.Metrics} record. Three purge policies decide
    when remote cores learn of a revocation:

    - {e eager}: a synchronous shootdown round per revocation —
      [ipi_send + (N-1) * ipi_deliver + ipi_ack] cycles, [N-1] IPIs;
    - {e lazy}: no IPIs; remote cores keep serving version-stamped stale
      entries until a use validates them (a [stale_trap], Opal-style
      deferred purge). A stale entry never grants rights above the
      pre-revocation snapshot;
    - {e batched}: revocations are queued and flushed in one round per
      [ipi_budget] revocations (destroys and unmaps still force a
      synchronous round — frames are about to be reused).

    A page eviction (memory full) flushes the victim from every core
    through the shared OS but bills no IPI round; billing one is out of
    scope.

    Execution order is driven by a splitmix-derived per-step core draw,
    reproducible from [(Config.seed, cores)], so every run is replayable
    and [sasos check] can mirror the schedule in the pure oracle
    ({!schedule_state}/{!schedule_next}). *)

type purge = Eager | Lazy | Batched

val purge_to_string : purge -> string
val purge_of_string : string -> (purge, string) result
val all_purges : purge list

val purge_names_doc : string
(** Comma-separated policy names for CLI docs (drift-tested). *)

(** {2 Process-global defaults}

    Set by the CLI before worker domains spawn, read by {!Make.create};
    never mutated mid-run (the parallel runner shares them). *)

val cores : unit -> int
val set_cores : int -> unit
(** @raise Invalid_argument outside [1..64]. *)

val purge : unit -> purge
val set_purge : purge -> unit

val ipi_budget : unit -> int
val set_ipi_budget : int -> unit
(** Batched-policy flush threshold (default 8).
    @raise Invalid_argument if [< 1]. *)

val set_ipi_cost : int -> unit
(** Override the per-target delivery cost ([Cost_model.ipi_deliver]).
    @raise Invalid_argument if negative. *)

(** {2 The interleaving schedule}

    Exposed so the multicore oracle can consume the identical draw
    stream: state from {!schedule_state}, then one {!schedule_next} per
    [SYSTEM] operation (including the conformance prologue's
    [new_domain]/[new_segment]/[switch_domain] calls). *)

val schedule_state : seed:int -> int
val schedule_next : int -> cores:int -> int * int
(** [(state', core)] — the next scheduler state and the core drawn. *)

(** {2 Introspection for tests and the profile CLI} *)

type handle = {
  h_cores : int;
  h_schedule_hash : unit -> int;
      (** fold over [(step, core, op)] — two runs interleaved identically
          iff equal *)
  h_steps : unit -> int;  (** scheduler draws so far *)
  h_pending_total : unit -> int;
      (** stale (domain, page) entries currently pending across cores *)
  h_summaries : unit -> Sasos_obs.Obs.summary list;
      (** per-core collector summaries (track = core id), [[]] when the
          ambient collector was disabled at creation. A core's
          [total_cycles] is the cycles its own operations charged, so the
          {!Sasos_obs.Obs.merge_tracks} total is the run's
          [Metrics.cycles] *)
}

val last : unit -> handle option
(** The handle of the most recently created {!Make} instance on this
    domain (domain-local, so parallel runner workers don't interfere). *)

module Make (S : Sasos_os.System_intf.MACHINE) : sig
  include Sasos_os.System_intf.SYSTEM

  val create_with :
    cores:int ->
    purge:purge ->
    ?ipi_budget:int ->
    Sasos_os.Config.t ->
    t
  (** Explicit-argument construction for experiments that vary the core
      count per row without touching the process-global defaults. *)
end
