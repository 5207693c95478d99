open Sasos_addr

(** The kernel's capability registry and name service.

    Minting records a capability's check field; validation compares the
    presented value against the record. [attach] is the Opal system call:
    present a capability, request rights, and — if the capability is
    genuine and the rights are within its bound — the segment is attached
    to the domain. A name service maps well-known strings to capabilities
    so domains can bootstrap sharing without a common ancestor. *)

type t

val create : ?seed:int -> unit -> t
(** The check index sits in flat int lanes (the 64-bit check split across
    two key lanes at full precision) so {!validate} never allocates. *)

(** {2 Capabilities} *)

val mint : t -> Segment.t -> Rights.t -> Capability.t
(** A fresh capability for the segment, bounding attachments to [rights]. *)

val restrict :
  t -> Capability.t -> Rights.t -> (Capability.t, string) result
(** Derive a weaker capability (a distinct check) from a valid one.
    Fails if the original is invalid or the new rights exceed its bound. *)

val validate : t -> Capability.t -> bool
(** Genuine and not revoked, with an untampered rights bound. *)

val revoke : t -> Capability.t -> unit
(** Invalidate this capability (derived capabilities stay valid — Opal
    revokes by segment versioning, modeled here as per-capability). *)

val attach :
  t ->
  System_intf.packed ->
  Pd.t ->
  Capability.t ->
  Rights.t ->
  (unit, string) result
(** Attach the capability's segment to the domain with [rights], after
    checking the capability is valid and [rights] ⊆ its bound. *)

(** {2 Name service} *)

val publish : t -> string -> Capability.t -> unit
val lookup : t -> string -> Capability.t option
val unpublish : t -> string -> unit
val names : t -> string list
