(* Multicore shootdown layer (lib/smp): the seeded-interleaving
   determinism contract — identical (seed, cores, policy) means
   byte-identical metrics and schedule hash on every machine — plus the
   per-policy coherence invariants (eager leaves no stale entry behind;
   lazy traps on every stale reuse and never grants above the
   pre-revocation snapshot; batched flushes exactly at the IPI budget)
   and the multicore differential harness itself. *)

open Sasos
module Op = Check.Op
module Gen = Check.Gen
module Exec = Check.Exec
module Harness = Check.Harness
module Mutate = Check.Mutate

let geom = Op.default_geom
let outcome = Alcotest.testable Access.pp_outcome Access.outcome_equal

let variants =
  [
    ("plb", Machines.Plb);
    ("page-group", Machines.Page_group);
    ("pk", Machines.Pk);
    ("conv-asid", Machines.Conv_asid);
    ("conv-flush", Machines.Conv_flush);
  ]

(* Restore every process-global a test touches, pass or fail — the rest
   of the suite runs single-core. *)
let with_globals f =
  let cores = Smp.cores () in
  let purge = Smp.purge () in
  let budget = Smp.ipi_budget () in
  Fun.protect
    ~finally:(fun () ->
      Smp.set_cores cores;
      Smp.set_purge purge;
      Smp.set_ipi_budget budget)
    f

(* -- interleaving determinism (QCheck) ---------------------------------- *)

(* Everything observable about one multicore run: the full metrics
   record, the schedule hash (folds (step, core, op) — equal iff the two
   runs interleaved identically) and the access outcomes. *)
type fingerprint = {
  fp_fields : (string * int) list;
  fp_hash : int;
  fp_steps : int;
  fp_outcomes : Access.outcome list;
}

let run_once variant ~script ~mseed ~cores ~purge =
  let sys = Machines.make_smp variant ~cores ~purge (Config.v ~seed:mseed ()) in
  let r = Exec.run_packed geom script sys in
  let h = Option.get (Smp.last ()) in
  {
    fp_fields = Metrics.fields (System_ops.metrics sys);
    fp_hash = h.Smp.h_schedule_hash ();
    fp_steps = h.Smp.h_steps ();
    fp_outcomes = r.Exec.outcomes;
  }

let gen_case =
  QCheck2.Gen.(
    triple (int_range 0 1000) (int_range 2 8) (oneofl Smp.all_purges))

let print_case (seed, cores, purge) =
  Printf.sprintf "seed=%d cores=%d purge=%s" seed cores
    (Smp.purge_to_string purge)

let prop_determinism =
  QCheck2.Test.make ~count:4 ~print:print_case
    ~name:
      "identical (seed,cores,policy) => identical metrics and schedule \
       hash; different seed => different hash [all machines]"
    gen_case
    (fun (seed, cores, purge) ->
      with_globals (fun () ->
          let script =
            Gen.script (Util.Prng.create ~seed:((seed * 3) + 1)) geom ~ops:40
          in
          List.for_all
            (fun (_, variant) ->
              let go = run_once variant ~script ~cores ~purge in
              let a = go ~mseed:seed in
              let b = go ~mseed:seed in
              (* a different machine seed reorders the interleaving:
                 same script, different core draws, different hash *)
              let other = go ~mseed:(seed + 1) in
              a = b && other.fp_hash <> a.fp_hash)
            variants))

(* -- coherence invariants ----------------------------------------------- *)

module M = Smp.Make (Machines.Plb_machine)

let handle () = Option.get (Smp.last ())

(* one domain attached to one segment, primed with enough reads that
   every core's private structures have seen the mapping *)
let setup ~cores ~purge ?ipi_budget ~rights () =
  let t = M.create_with ~cores ~purge ?ipi_budget Config.default in
  let d1 = M.new_domain t in
  let seg = M.new_segment t ~pages:4 () in
  M.attach t d1 seg rights;
  M.switch_domain t d1;
  for i = 0 to 31 do
    ignore (M.access t Access.Read (Segment.page_va seg (i mod 4)))
  done;
  (t, d1, seg)

let test_eager_purges_on_ack () =
  let t, d1, seg = setup ~cores:4 ~purge:Smp.Eager ~rights:Rights.rw () in
  let m = M.metrics t in
  Alcotest.(check int) "no shootdown before the revocation" 0
    m.Metrics.shootdowns;
  M.protect_segment t d1 seg Rights.none;
  let h = handle () in
  Alcotest.(check int) "revocation forced one synchronous round" 1
    m.Metrics.shootdowns;
  Alcotest.(check int) "one IPI per remote core" 3 m.Metrics.ipis;
  Alcotest.(check int) "no core left holding the revoked mapping" 0
    (h.Smp.h_pending_total ());
  Alcotest.(check int) "eager never takes a stale trap" 0
    m.Metrics.stale_hits;
  (* whichever core the scheduler picks next, the access sees truth *)
  for i = 0 to 7 do
    Alcotest.check outcome "post-shootdown access faults on every core"
      Access.Protection_fault
      (M.access t Access.Read (Segment.page_va seg (i mod 4)))
  done;
  Alcotest.(check bool) "hardware never over-allows" false
    (M.hw_over_allows t [ (d1, Segment.page_va seg 0) ])

(* One synchronous round at N cores bills ipi_send + (N-1) * ipi_deliver
   + ipi_ack on top of the purge work: two runs that differ only in the
   IPI prices differ by exactly that, and lazy (no round) by nothing. *)
let test_round_ipi_billing () =
  let run ~purge cost =
    let t = M.create_with ~cores:4 ~purge { Config.default with Config.cost } in
    let d1 = M.new_domain t in
    let seg = M.new_segment t ~pages:4 () in
    M.attach t d1 seg Rights.rw;
    M.switch_domain t d1;
    for i = 0 to 31 do
      ignore (M.access t Access.Read (Segment.page_va seg (i mod 4)))
    done;
    M.protect_segment t d1 seg Rights.none;
    (M.metrics t).Metrics.cycles
  in
  let free = Hw.Cost_model.v ~ipi_send:0 ~ipi_deliver:0 ~ipi_ack:0 () in
  let priced = Hw.Cost_model.v ~ipi_send:100 ~ipi_deliver:10 ~ipi_ack:1 () in
  Alcotest.(check int) "eager round: send + 3 deliveries + ack"
    (100 + (3 * 10) + 1)
    (run ~purge:Smp.Eager priced - run ~purge:Smp.Eager free);
  Alcotest.(check int) "lazy revocation bills no IPI cost" 0
    (run ~purge:Smp.Lazy priced - run ~purge:Smp.Lazy free)

let test_lazy_stale_traps () =
  let t, d1, seg = setup ~cores:2 ~purge:Smp.Lazy ~rights:Rights.rw () in
  let m = M.metrics t in
  M.protect_segment t d1 seg Rights.none;
  let h = handle () in
  Alcotest.(check int) "lazy sends no IPIs" 0 m.Metrics.ipis;
  Alcotest.(check bool) "remote core still holds the revoked mapping" true
    (h.Smp.h_pending_total () > 0);
  (* every post-revocation Ok is a stale entry being served from the
     pre-revocation snapshot, and each one must have trapped *)
  let ok = ref 0 in
  for i = 0 to 39 do
    match M.access t Access.Read (Segment.page_va seg (i mod 4)) with
    | Access.Ok -> incr ok
    | Access.Protection_fault -> ()
  done;
  Alcotest.(check bool) "schedule exercised a stale entry" true (!ok > 0);
  Alcotest.(check int) "every stale hit raised the trap counter" !ok
    m.Metrics.stale_hits;
  Alcotest.(check int) "validate-on-use drained the pending set" 0
    (h.Smp.h_pending_total ());
  (* drained: the mapping is gone everywhere, truth from here on *)
  Alcotest.check outcome "after draining, accesses fault"
    Access.Protection_fault
    (M.access t Access.Read (Segment.page_va seg 0))

let test_lazy_snapshot_bounds_stale_grant () =
  (* read-only attachment: even a stale entry must not grant a write *)
  let t, d1, seg = setup ~cores:2 ~purge:Smp.Lazy ~rights:Rights.r () in
  let m = M.metrics t in
  M.protect_segment t d1 seg Rights.none;
  for i = 0 to 39 do
    Alcotest.check outcome
      "stale entry never grants above the pre-revocation snapshot"
      Access.Protection_fault
      (M.access t Access.Write (Segment.page_va seg (i mod 4)))
  done;
  Alcotest.(check bool) "stale hits still trapped while denying" true
    (m.Metrics.stale_hits > 0);
  Alcotest.(check bool) "hardware never over-allows" false
    (M.hw_over_allows t [ (d1, Segment.page_va seg 0) ])

let test_batched_flushes_at_budget () =
  let t = M.create_with ~cores:4 ~purge:Smp.Batched ~ipi_budget:2
      Config.default
  in
  let d1 = M.new_domain t in
  let s1 = M.new_segment t ~pages:2 () in
  let s2 = M.new_segment t ~pages:2 () in
  M.attach t d1 s1 Rights.rw;
  M.attach t d1 s2 Rights.rw;
  M.switch_domain t d1;
  let m = M.metrics t in
  let h = handle () in
  M.protect_segment t d1 s1 Rights.none;
  Alcotest.(check int) "first revocation queues, no round" 0
    m.Metrics.shootdowns;
  Alcotest.(check bool) "queued revocation is pending remotely" true
    (h.Smp.h_pending_total () > 0);
  M.protect_segment t d1 s2 Rights.none;
  Alcotest.(check int) "second revocation reaches the budget: one round" 1
    m.Metrics.shootdowns;
  Alcotest.(check int) "the flush purged every pending entry" 0
    (h.Smp.h_pending_total ());
  Alcotest.(check int) "one IPI per remote core in the flushed round" 3
    m.Metrics.ipis

let test_destroy_forces_round_under_lazy () =
  (* destroys reuse frames: even lazy must synchronize *)
  let t, d1, seg = setup ~cores:4 ~purge:Smp.Lazy ~rights:Rights.rw () in
  let m = M.metrics t in
  let h = handle () in
  M.protect_segment t d1 seg Rights.none;
  Alcotest.(check bool) "revocation pending under lazy" true
    (h.Smp.h_pending_total () > 0);
  M.destroy_segment t seg;
  Alcotest.(check int) "destroy forced a synchronous round" 1
    m.Metrics.shootdowns;
  Alcotest.(check int) "the round cleared the pending set" 0
    (h.Smp.h_pending_total ())

(* -- one OS under every core ---------------------------------------------- *)

(* A 4-core machine of [variant] with one domain attached read-write to
   a small segment and running. *)
let shared_setup variant ~cores ~seed =
  let sys =
    Machines.make_smp variant ~cores ~purge:Smp.Eager (Config.v ~seed ())
  in
  let d1 = System_ops.new_domain sys in
  let seg = System_ops.new_segment sys ~pages:4 () in
  System_ops.attach sys d1 seg Rights.rw;
  System_ops.switch_domain sys d1;
  (sys, d1, seg)

(* An OS operation runs once, on the scheduled core: a revoking grant at
   4 cores is one kernel entry, however many cores run the shootdown
   handler. *)
let test_grant_one_kernel_entry variant () =
  let sys, d1, seg = shared_setup variant ~cores:4 ~seed:1 in
  let m = System_ops.metrics sys in
  let before = m.Metrics.kernel_entries in
  System_ops.grant sys d1 (Segment.page_va seg 0) Rights.r;
  Alcotest.(check int) "one kernel entry" 1 (m.Metrics.kernel_entries - before);
  Alcotest.(check int) "and one shootdown round" 1 m.Metrics.shootdowns

(* One disk: a page written on one core and unmapped on another is
   written back once and read back once, whatever core each step runs
   on. *)
let test_unmap_disk_traffic variant () =
  List.iter
    (fun cores ->
      for seed = 0 to 5 do
        let sys, _, seg = shared_setup variant ~cores ~seed in
        let va = Segment.page_va seg 0 in
        ignore (System_ops.access sys Access.Write va);
        System_ops.unmap_page sys (Segment.first_vpn seg);
        Alcotest.check outcome "re-read allowed" Access.Ok
          (System_ops.access sys Access.Read va);
        let m = System_ops.metrics sys in
        let what = Printf.sprintf "%d cores, seed %d" cores seed in
        Alcotest.(check int) (what ^ ": one page-out") 1 m.Metrics.page_outs;
        Alcotest.(check int) (what ^ ": one page-in") 1 m.Metrics.page_ins
      done)
    [ 1; 2; 4 ]

let machine_modules : (string * (module Os.System_intf.MACHINE)) list =
  [
    ("plb", (module Machines.Plb_machine));
    ("page-group", (module Machines.Pg_machine));
    ("pk", (module Machines.Pk_machine));
    ("conv-asid", (module Machines.Conv_machine.Asid));
    ("conv-flush", (module Machines.Conv_machine.Flush));
  ]

(* One frame pool: a page core 0 paged in is resident for core 1, whose
   first touch fills only its own TLB. *)
let test_shared_residency (module M : Os.System_intf.MACHINE) () =
  let c0 = M.create Config.default in
  let c1 = M.add_core c0 ~probe:(Hw.Probe.create ()) in
  let d = M.new_domain c0 in
  let seg = M.new_segment c0 ~pages:2 () in
  M.attach c0 d seg Rights.rw;
  M.switch_domain c0 d;
  M.switch_domain c1 d;
  let va = Segment.page_va seg 0 in
  let m = M.metrics c0 in
  Alcotest.check outcome "core 0 reads" Access.Ok (M.access c0 Access.Read va);
  Alcotest.(check int) "core 0 took the page fault" 1 m.Metrics.page_faults;
  Alcotest.check outcome "core 1 reads" Access.Ok (M.access c1 Access.Read va);
  Alcotest.(check int) "core 1's first touch takes no page fault" 1
    m.Metrics.page_faults

(* An eviction on one core flushes the victim from every core: the other
   core's next touch misses in its TLB, and no core's hardware
   over-allows. *)
let test_eviction_reaches_every_core (module M : Os.System_intf.MACHINE) () =
  let c0 = M.create (Config.v ~frames:2 ()) in
  let c1 = M.add_core c0 ~probe:(Hw.Probe.create ()) in
  let d = M.new_domain c0 in
  let seg = M.new_segment c0 ~pages:3 () in
  M.attach c0 d seg Rights.rw;
  M.switch_domain c0 d;
  M.switch_domain c1 d;
  let va i = Segment.page_va seg i in
  let m = M.metrics c0 in
  ignore (M.access c0 Access.Write (va 0));
  ignore (M.access c1 Access.Read (va 0));
  (* a second touch on core 1 hits its TLB *)
  let misses = m.Metrics.tlb_misses in
  ignore (M.access c1 Access.Read (va 0));
  Alcotest.(check int) "core 1 holds the page" misses m.Metrics.tlb_misses;
  (* core 0 fills memory: the oldest page, 0, is evicted *)
  ignore (M.access c0 Access.Read (va 1));
  ignore (M.access c0 Access.Read (va 2));
  Alcotest.(check bool) "page 0 evicted" false
    (Os.Os_core.is_resident (M.os c0) ~vpn:(Segment.first_vpn seg));
  let probes = List.init 3 (fun i -> (d, va i)) in
  Alcotest.(check bool) "core 0 never over-allows" false
    (M.hw_over_allows c0 probes);
  Alcotest.(check bool) "core 1 never over-allows" false
    (M.hw_over_allows c1 probes);
  let misses = m.Metrics.tlb_misses and cache_misses = m.Metrics.cache_misses in
  Alcotest.check outcome "core 1 re-reads" Access.Ok
    (M.access c1 Access.Read (va 0));
  Alcotest.(check bool) "core 1's touch of the victim misses its TLB" true
    (m.Metrics.tlb_misses > misses);
  Alcotest.(check bool) "... and its data cache" true
    (m.Metrics.cache_misses > cache_misses);
  Alcotest.(check int) "the dirty victim was written back once" 1
    m.Metrics.page_outs

(* A page-group move made on one core rewrites the page's TLB entry on
   every core: a stale home-group AID on core 0 would let a domain that
   later joins the home group reach a page it was denied. *)
let test_pg_group_move_reaches_every_core () =
  let module M = Machines.Pg_machine in
  let c0 = M.create Config.default in
  let c1 = M.add_core c0 ~probe:(Hw.Probe.create ()) in
  let d2 = M.new_domain c0 and d3 = M.new_domain c0 in
  let seg = M.new_segment c0 ~pages:2 () in
  let p0 = Segment.page_va seg 0 in
  M.attach c0 d2 seg Rights.r;
  M.switch_domain c0 d2;
  Alcotest.check outcome "core 0 caches page 0" Access.Ok
    (M.access c0 Access.Read p0);
  (* core 1 denies d3 the page (moving it out of the home group), then
     attaches d3 to the segment, which joins d3 to the home group *)
  M.grant c1 d3 p0 Rights.none;
  M.attach c1 d3 seg Rights.r;
  Alcotest.(check bool) "core 0 does not over-allow d3" false
    (M.hw_over_allows c0 [ (d3, p0) ])

(* -- the multicore differential harness --------------------------------- *)

let test_harness_multicore_green () =
  with_globals (fun () ->
      List.iter
        (fun purge ->
          Smp.set_cores 4;
          Smp.set_purge purge;
          let r = Harness.run ~jobs:1 ~ops:40 ~scripts:6 ~seed:11 () in
          Alcotest.(check bool)
            (Printf.sprintf "4-core %s: all machines agree with the mirror"
               (Smp.purge_to_string purge))
            false (Harness.failed r))
        Smp.all_purges)

let test_harness_multicore_sensitivity () =
  (* a planted bug must still be visible through the multicore mirror *)
  with_globals (fun () ->
      Smp.set_cores 2;
      Smp.set_purge Smp.Eager;
      let mutation = Option.get (Mutate.find "skip-detach") in
      let r = Harness.run ~jobs:1 ~mutation ~ops:60 ~scripts:10 ~seed:7 () in
      Alcotest.(check bool) "skip-detach detected at 2 cores" true
        (Harness.failed r))

let suite =
  [
    Qprop.to_alcotest prop_determinism;
    Alcotest.test_case "eager: ack leaves no stale entry" `Quick
      test_eager_purges_on_ack;
    Alcotest.test_case "eager round bills send + (N-1) deliver + ack" `Quick
      test_round_ipi_billing;
    Alcotest.test_case "lazy: stale hits trap, then drain" `Quick
      test_lazy_stale_traps;
    Alcotest.test_case "lazy: snapshot bounds stale grants" `Quick
      test_lazy_snapshot_bounds_stale_grant;
    Alcotest.test_case "batched: flush exactly at ipi-budget" `Quick
      test_batched_flushes_at_budget;
    Alcotest.test_case "lazy: destroy forces a synchronous round" `Quick
      test_destroy_forces_round_under_lazy;
  ]
  @ List.concat_map
      (fun (name, variant) ->
        [
          Alcotest.test_case (name ^ ": grant at 4 cores, one kernel entry")
            `Quick (test_grant_one_kernel_entry variant);
          Alcotest.test_case (name ^ ": unmap bills one disk round trip")
            `Quick (test_unmap_disk_traffic variant);
        ])
      variants
  @ List.concat_map
      (fun (name, m) ->
        [
          Alcotest.test_case (name ^ ": residency shared across cores")
            `Quick (test_shared_residency m);
          Alcotest.test_case (name ^ ": eviction flushes every core") `Quick
            (test_eviction_reaches_every_core m);
        ])
      machine_modules
  @ [
    Alcotest.test_case "page-group: a group move reaches every core" `Quick
      test_pg_group_move_reaches_every_core;
    Alcotest.test_case "harness green at 4 cores, every policy" `Quick
      test_harness_multicore_green;
    Alcotest.test_case "harness still sees planted bugs at 2 cores" `Quick
      test_harness_multicore_sensitivity;
  ]
