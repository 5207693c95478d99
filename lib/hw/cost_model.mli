(** Cycle costs charged for simulated events.

    The paper argues about relative costs (a trap is expensive, a purge
    sweeps the whole structure, a PLB domain switch is one register write);
    this model makes those relations concrete with representative
    early-1990s RISC values. Every experiment also reports raw event counts,
    so conclusions do not hinge on these defaults. See DESIGN.md §4. *)

type t = {
  cache_hit : int;
  cache_miss : int;  (** line fill from memory, excludes page-in *)
  l2_hit : int;  (** line fill from a second-level cache, when present *)
  cache_writeback : int;
  cache_line_flush : int;  (** one flush-cache-line instruction *)
  tlb_refill : int;  (** software miss handler *)
  plb_refill : int;
  pg_refill : int;  (** load one page-group cache entry *)
  kernel_trap : int;  (** enter + exit the kernel *)
  page_in : int;
  page_out : int;
  purge_per_entry : int;  (** per slot inspected during a sweep *)
  domain_switch : int;  (** scheduler path, excludes structure work *)
  pd_id_write : int;  (** writing the PD-ID register (PLB switch) *)
  key_reg_write : int;
      (** writing one lane of the key-rights register file (Pk machine:
          domain switch swaps the register, rights changes rewrite lanes) *)
  pg_sequential_penalty : int;
      (** extra latency per access for the page-group model's serialized
          TLB-then-PID comparison (§4.2); 0 assumes the cycle absorbs it *)
  table_op : int;  (** touch one OS table entry inside the kernel *)
  ipi_send : int;
      (** initiate one inter-processor shootdown round on the requesting
          core (build the request, write the doorbells) *)
  ipi_deliver : int;
      (** deliver the interrupt to one target core and run its purge
          handler; charged once per remote core per round *)
  ipi_ack : int;
      (** the initiator's ack barrier: wait until every target has
          acknowledged; charged once per round *)
  stale_trap : int;
      (** under lazy purge, revalidate a version-stamped entry that was
          observed stale on use *)
}

val default : t

val v :
  ?cache_hit:int ->
  ?cache_miss:int ->
  ?l2_hit:int ->
  ?cache_writeback:int ->
  ?cache_line_flush:int ->
  ?tlb_refill:int ->
  ?plb_refill:int ->
  ?pg_refill:int ->
  ?kernel_trap:int ->
  ?page_in:int ->
  ?page_out:int ->
  ?purge_per_entry:int ->
  ?domain_switch:int ->
  ?pd_id_write:int ->
  ?key_reg_write:int ->
  ?pg_sequential_penalty:int ->
  ?table_op:int ->
  ?ipi_send:int ->
  ?ipi_deliver:int ->
  ?ipi_ack:int ->
  ?stale_trap:int ->
  unit ->
  t
(** Build a cost model, defaulting each field from {!default}. *)
