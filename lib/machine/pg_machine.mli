(** The page-group machine: the Hewlett-Packard PA-RISC protection
    architecture (Figure 2), with the paper's Wilkes–Sears modification of
    an LRU cache of permitted page-groups in place of the four PID
    registers.

    Model-defining behaviours, all from the paper:
    - each page belongs to exactly one page-group (AID); its TLB entry
      carries the AID and a single Rights field used by every domain with
      access to the group; a per-(domain, group) write-disable bit can veto
      writes;
    - the TLB is on the critical path (protection requires it), and the
      protection check is sequential: TLB then page-group cache (§4.2);
    - segment attach/detach add or remove one group from the domain's set —
      no per-page hardware work, and TLB entries are untouched;
    - a domain switch purges the page-group cache (with optional eager
      reload, §4.1.4);
    - per-domain-per-page rights changes must be emulated by moving pages
      between page-groups (§4.1.2); when a sharing pattern is inexpressible
      by a single group, the page alternates between groups as different
      domains fault on it — the thrashing the paper predicts for shared
      read locks. *)

include Sasos_os.System_intf.MACHINE

val group_count : t -> int
(** Number of live page-groups the OS has created (home groups + override
    signature groups) — pressure on the AID space and the pg-cache. *)

val aid_of_va : t -> Sasos_addr.Va.t -> int
(** The page-group currently containing the page at [va] (for tests). *)
