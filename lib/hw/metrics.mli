(** Event counters accumulated by a simulated machine.

    Every quantity the paper reasons about qualitatively is a counter here:
    structure hits/misses/refills, kernel traps, purge sweeps, faults and
    the derived simulated cycle count. *)

type t = {
  mutable accesses : int;
  mutable reads : int;
  mutable writes : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_writebacks : int;
  mutable cache_lines_flushed : int;
  mutable l2_hits : int;
  mutable l2_misses : int;
  mutable plb_hits : int;
  mutable plb_misses : int;
  mutable plb_refills : int;
  mutable tlb_hits : int;
  mutable tlb_misses : int;
  mutable tlb_refills : int;
  mutable pg_hits : int;
  mutable pg_misses : int;
  mutable pg_refills : int;
  mutable protection_faults : int;
  mutable page_faults : int;
  mutable page_ins : int;
  mutable page_outs : int;
  mutable kernel_entries : int;
  mutable entries_inspected : int;
      (** slots examined by purge sweeps (PLB detach, TLB shootdown) *)
  mutable entries_purged : int;
  mutable domain_switches : int;
  mutable attaches : int;
  mutable detaches : int;
  mutable grants : int;  (** per-domain-page rights changes *)
  mutable global_protects : int;  (** all-domain rights changes *)
  mutable regroups : int;  (** pages moved between page-groups *)
  mutable cache_synonyms : int;
      (** gauge: physical lines resident under two tags (MAS VIVT hazard) *)
  mutable shootdowns : int;
      (** inter-processor shootdown rounds (the smp layer; 0 on one core) *)
  mutable ipis : int;
      (** individual inter-processor interrupts delivered: one per remote
          core per shootdown round (the smp layer) *)
  mutable stale_hits : int;
      (** lazy-purge revalidation traps: a private-structure entry
          observed stale on use (version behind the revocation frontier) *)
  mutable key_allocs : int;
      (** protection keys bound to a fresh rights signature (Pk machine) *)
  mutable key_recycles : int;
      (** keys stolen from a live signature on exhaustion, forcing a
          shootdown-style purge of the entries tagged with the victim key *)
  mutable key_reg_writes : int;
      (** writes to the per-domain key-rights register file *)
  mutable cycles : int;
}

val create : unit -> t
val reset : t -> unit
val copy : t -> t

val diff : t -> t -> t
(** [diff later earlier]: counter-wise subtraction, for measuring a phase. *)

val add_into : t -> t -> unit
(** [add_into acc x] accumulates [x] into [acc]. *)

val cache_miss_ratio : t -> float
val plb_miss_ratio : t -> float
val tlb_miss_ratio : t -> float
val pg_miss_ratio : t -> float

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable dump of the non-zero counters. *)

val fields : t -> (string * int) list
(** All counters with stable snake_case names, for report generation. *)
