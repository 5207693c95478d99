(** The protection-keys machine: the modern MPK/PKS descendant of the
    paper's domain-page model.

    A single-space TLB entry carries a small protection-key index in its
    packed AID lane; the rights the hardware enforces for an access come
    from the *current domain's* key-rights register file
    ({!Sasos_hw.Key_regs}), not from the entry itself. Consequences, in
    Table 1 terms:

    - a domain switch swaps one register — no TLB or cache purge;
    - a shared page costs one TLB entry regardless of sharers (§3.1);
    - a rights change on the pages behind one key is a register-lane
      rewrite; only changes that split a key's population touch the TLB.

    The OS assigns keys to rights signatures — the sorted (domain, rights)
    pattern of a protection unit — so units protected alike share a key.
    Key 0 is the reserved always-deny trap key. On key exhaustion the
    configured {!Sasos_os.Config.pk_policy} either recycles a round-robin
    victim (purging its TLB entries, shootdown-style) or parks the page on
    the trap key, where every access is kernel-mediated. *)

include Sasos_os.System_intf.MACHINE

(** {2 Introspection (tests, experiments)} *)

val trap_key : int
(** The reserved always-deny key index (0). *)

val key_of_va : t -> Sasos_addr.Va.t -> int option
(** The key currently bound to the protection unit containing [va];
    [None] when the unit is unbound (never touched, or parked on the trap
    key after exhaustion under [`Trap]). *)

val key_of_unit : t -> int -> int option

val live_keys : t -> int
(** Keys currently bound to at least one protection unit. *)

val key_regs : t -> Sasos_hw.Key_regs.t
(** The machine's register file (read-only use intended). *)
