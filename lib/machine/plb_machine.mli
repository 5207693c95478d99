(** The domain-page machine: a Protection Lookaside Buffer (Figure 1)
    beside a virtually indexed, virtually tagged data cache, with the TLB
    off the critical path (consulted only on cache misses and writebacks).

    Model-defining behaviours, all from the paper:
    - a domain switch writes one register (the PD-ID); no structure purges;
    - segment attach manipulates no hardware — PLB entries fault in lazily;
    - segment detach sweeps the PLB for (domain, segment) entries;
    - a per-domain-per-page rights change updates a single PLB entry;
    - an all-domain rights change must sweep the PLB;
    - unmapping a page requires no PLB maintenance (stale entries are
      harmless: the TLB miss catches the access);
    - with several configured protection page sizes, refills pick the
      coarsest grain that matches the OS truth (§4.3). *)

include Sasos_os.System_intf.MACHINE

(** {2 Okamoto execution-point extension (§5 related work)}

    Okamoto et al. (USENIX Microkernels 1992) extend the domain-page model
    so a page can be made accessible to any thread currently executing
    code from a designated page, independent of its protection domain. PLB
    entries for such grants carry a context tag instead of a PD-ID and the
    processor matches either register. Protected objects can then be
    invoked without a protection-domain switch — see the [okamoto]
    experiment. These operations are extensions beyond the SYSTEM
    interface; with no guards installed the machine behaves exactly as the
    paper's Figure 1 PLB. *)

val guard_segment :
  t -> data:Sasos_os.Segment.t -> code:Sasos_os.Segment.t ->
  Sasos_addr.Rights.t -> unit
(** Grant [rights] on the whole [data] segment to any thread executing
    from the [code] segment (replacing a previous guard of [data]). *)

val unguard_segment : t -> data:Sasos_os.Segment.t -> unit
(** Remove the guard and sweep its context-tagged PLB entries. *)

val set_code_context : t -> Sasos_os.Segment.t option -> unit
(** Model the program counter entering ([Some code]) or leaving ([None])
    a guarded code segment: one register write, no kernel entry. *)

val guard_rights : t -> Sasos_addr.Va.t -> Sasos_addr.Rights.t
(** Rights granted at [va] through the current code context (for tests). *)
