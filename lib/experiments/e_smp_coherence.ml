(** Coherence traffic at N cores: the multicore shootdown layer (lib/smp)
    run over the Table 1 protection-change-heavy classes.

    The machine models are single-core; this experiment executes the
    shootdown protocol over them: every machine is lifted to N cores —
    per-core hardware over one OS, each operation run once on the core a
    deterministic interleaving schedule picks — and each purge policy
    (eager / lazy / batched) pays its own mix of shootdown rounds,
    per-target IPIs and stale-entry traps. The crossover of interest:
    eager's IPI bill grows linearly with the revocation rate and core
    count, batched amortizes it by the flush budget, and lazy converts it
    into stale traps on the access path — which policy wins depends on
    how revocation-heavy the class is. *)

open Sasos_hw
open Sasos_machine
open Sasos_util
open Sasos_workloads

let cores_list = [ 1; 2; 4; 8 ]

let gc_small sys =
  ignore
    (Gc.run
       ~params:
         { Gc.default with heap_pages = 64; collections = 3;
           mutator_refs = 6_000 }
       sys)

let dsm_small sys =
  ignore (Dsm.run ~params:{ Dsm.default with pages = 64; refs = 12_000 } sys)

let tvm_small sys =
  ignore
    (Txn.run ~params:{ Txn.default with txns = 60; db_pages = 64 } sys)

let run_one variant ~cores ~purge workload =
  let sys =
    Sys_select.make_smp variant ~cores ~purge Sasos_os.Config.default
  in
  workload sys;
  Metrics.copy (Sasos_os.System_ops.metrics sys)

let run () =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    "Cycles per access vs core count under the executed shootdown \
     protocol (lib/smp):\nper-core hardware over one OS (each operation \
     runs once), IPI cost model, purge\npolicy deciding when remote cores \
     learn of a revocation. Counters at 8 cores.\n\n";
  List.iter
    (fun (wname, workload) ->
      let t =
        Tablefmt.create
          ([ ("model", Tablefmt.Left); ("purge", Tablefmt.Left) ]
          @ List.map
              (fun n -> (Printf.sprintf "%d core" n, Tablefmt.Right))
              cores_list
          @ [ ("rounds@8", Tablefmt.Right); ("ipis@8", Tablefmt.Right);
              ("stale@8", Tablefmt.Right) ])
      in
      List.iter
        (fun (mname, variant) ->
          List.iter
            (fun purge ->
              let last = ref None in
              let cells =
                List.map
                  (fun cores ->
                    let m = run_one variant ~cores ~purge workload in
                    last := Some m;
                    Tablefmt.cell_float
                      (Experiment.per m.Metrics.cycles m.Metrics.accesses))
                  cores_list
              in
              let m8 = Option.get !last in
              Tablefmt.add_row t
                ([ mname; Sasos_smp.Smp.purge_to_string purge ]
                @ cells
                @ [ Tablefmt.cell_int m8.Metrics.shootdowns;
                    Tablefmt.cell_int m8.Metrics.ipis;
                    Tablefmt.cell_int m8.Metrics.stale_hits ]))
            Sasos_smp.Smp.all_purges)
        Sys_select.all;
      Buffer.add_string buf (wname ^ ":\n");
      Buffer.add_string buf (Tablefmt.render t);
      Buffer.add_string buf "\n")
    [ ("Concurrent GC (grant-per-page revocation storm)", gc_small);
      ("Distributed VM (invalidation-heavy)", dsm_small);
      ("Transactional VM (quantum-revoked write sets)", tvm_small) ];
  Buffer.add_string buf
    "Expected shape: at 1 core all policies coincide (no remote cores to \
     purge). As cores\ngrow, eager pays one synchronous round per \
     revocation (IPIs ~ rounds x (N-1)), batched\ndivides the round count \
     by the flush budget, and lazy pays zero IPIs but takes a\nstale trap \
     per first remote reuse of a revoked entry — so lazy wins on classes \
     whose\nrevoked pages are rarely re-touched, batched wins on \
     revocation storms, and the\ncrossover moves toward batched/lazy as \
     the core count (and so the per-round IPI\nbill) rises.\n";
  Buffer.contents buf

let experiment =
  {
    Experiment.id = "smp-coherence";
    title = "Shootdown protocol: coherence traffic at N cores";
    paper_ref = "§4.1.3 (multiprocessor remark)";
    description =
      "Table 1 classes (GC, DSM, TVM) on every machine lifted to \
       1/2/4/8 cores over one OS: shootdown rounds, per-target IPIs and \
       stale-entry traps per purge policy (eager / lazy / batched) under \
       the deterministic interleaving scheduler.";
    run;
  }
