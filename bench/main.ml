(* Benchmark harness.

   Part 1 regenerates every table and figure of the paper (the experiment
   registry renders the full reproduction report).

   Part 2 runs Bechamel micro-benchmarks — one Test.make per paper artifact
   — timing the simulator kernels that artifact exercises: the Table 1
   workload rows on the competing machines, the Figure 1 PLB lookup path,
   the Figure 2 page-group check, the §4.1.4 domain switch, and so on.
   These measure wall-clock cost of the *simulation*, demonstrating the
   harness is fast enough for the parameter sweeps the experiments run. *)

open Bechamel
open Toolkit
open Sasos
open Sasos.Os

(* --- kernels ---------------------------------------------------------- *)

let small_machine variant = Machines.make variant Config.default

let workload_kernel variant (run : System_intf.packed -> unit) () =
  run (small_machine variant)

let gc_small sys =
  ignore
    (Workloads.Gc.run
       ~params:
         { Workloads.Gc.default with heap_pages = 32; collections = 1;
           mutator_refs = 1_000 }
       sys)

let dsm_small sys =
  ignore
    (Workloads.Dsm.run
       ~params:{ Workloads.Dsm.default with pages = 32; refs = 2_000 }
       sys)

let txn_small sys =
  ignore
    (Workloads.Txn.run
       ~params:{ Workloads.Txn.default with txns = 10; db_pages = 64; ops = 15 }
       sys)

let checkpoint_small sys =
  ignore
    (Workloads.Checkpoint.run
       ~params:
         { Workloads.Checkpoint.default with data_pages = 32; checkpoints = 1;
           refs_between = 500; refs_during = 500 }
       sys)

let compress_small sys =
  ignore
    (Workloads.Compress_paging.run
       ~params:
         { Workloads.Compress_paging.default with data_pages = 32;
           refs = 1_000; resident_target = 8 }
       sys)

let attach_small sys =
  Workloads.Attach_churn.run
    ~params:
      { Workloads.Attach_churn.default with iterations = 50; live_target = 8 }
    sys

let rpc_small sys =
  Workloads.Rpc.run ~params:{ Workloads.Rpc.default with calls = 200 } sys

let synthetic_small sys =
  Workloads.Synthetic.run
    ~params:{ Workloads.Synthetic.default with refs = 5_000 }
    sys

(* a warm two-domain machine for operation-level kernels *)
let warm variant =
  let sys = small_machine variant in
  let d1 = System_ops.new_domain sys in
  let d2 = System_ops.new_domain sys in
  let seg = System_ops.new_segment sys ~pages:16 () in
  System_ops.attach sys d1 seg Rights.rw;
  System_ops.attach sys d2 seg Rights.rw;
  System_ops.switch_domain sys d1;
  for i = 0 to 15 do
    ignore (System_ops.access sys Access.Write (Segment.page_va seg i))
  done;
  (sys, d1, d2, seg)

let switch_kernel variant =
  let sys, d1, d2, _ = warm variant in
  let flip = ref false in
  fun () ->
    flip := not !flip;
    System_ops.switch_domain sys (if !flip then d2 else d1)

let access_kernel variant =
  let sys, _, _, seg = warm variant in
  let i = ref 0 in
  fun () ->
    i := (!i + 1) land 15;
    ignore (System_ops.access sys Access.Read (Segment.page_va seg !i))

let plb_lookup_kernel () =
  let plb = Hw.Plb.create ~sets:1 ~ways:64 () in
  let pd = Pd.of_int 1 in
  for p = 0 to 63 do
    Hw.Plb.install plb ~pd ~va:(p lsl 12) ~shift:12 Rights.rw
  done;
  let i = ref 0 in
  fun () ->
    i := (!i + 1) land 63;
    ignore (Hw.Plb.lookup plb ~pd ~va:(!i lsl 12))

let pg_check_kernel () =
  let pgc = Hw.Page_group_cache.create ~entries:16 () in
  for aid = 2 to 17 do
    Hw.Page_group_cache.load pgc ~aid ~write_disabled:false
  done;
  let i = ref 0 in
  fun () ->
    i := (!i + 1) land 15;
    ignore (Hw.Page_group_cache.check pgc ~aid:(!i + 2))

let tag_arith_kernel () =
  let g = Geometry.default in
  fun () ->
    ignore (Geometry.vivt_tag_bits g ~line_bytes:32 ~cache_bytes:65536 ~ways:2);
    ignore (Geometry.plb_entry_bits g);
    ignore (Geometry.pg_tlb_entry_bits g)

let granularity_kernel () =
  let geom = Geometry.v ~prot_shift:7 () in
  let config = Config.v ~geom () in
  let sys = Machines.make Machines.Plb config in
  let d = System_ops.new_domain sys in
  let seg = System_ops.new_segment sys ~pages:8 () in
  System_ops.attach sys d seg Rights.rw;
  System_ops.switch_domain sys d;
  let i = ref 0 in
  fun () ->
    i := (!i + 97) land 0x7fff;
    ignore (System_ops.access sys Access.Read (seg.Segment.base + !i))

(* --- test registry: one Test.make per paper artifact ------------------ *)

let table1_tests =
  let row name kernel =
    [
      Test.make
        ~name:(name ^ "/plb")
        (Staged.stage (workload_kernel Machines.Plb kernel));
      Test.make
        ~name:(name ^ "/page-group")
        (Staged.stage (workload_kernel Machines.Page_group kernel));
    ]
  in
  Test.make_grouped ~name:"table1"
    (List.concat
       [
         row "attach" attach_small;
         row "gc" gc_small;
         row "dsm" dsm_small;
         row "txn" txn_small;
         row "checkpoint" checkpoint_small;
         row "compress" compress_small;
       ])

let fig1_test =
  Test.make ~name:"fig1_plb/lookup" (Staged.stage (plb_lookup_kernel ()))

let fig2_test =
  Test.make ~name:"fig2_pg/check" (Staged.stage (pg_check_kernel ()))

let domain_switch_tests =
  Test.make_grouped ~name:"domain_switch"
    [
      Test.make ~name:"plb" (Staged.stage (switch_kernel Machines.Plb));
      Test.make ~name:"page-group"
        (Staged.stage (switch_kernel Machines.Page_group));
      Test.make ~name:"conv-asid"
        (Staged.stage (switch_kernel Machines.Conv_asid));
      Test.make ~name:"conv-flush"
        (Staged.stage (switch_kernel Machines.Conv_flush));
    ]

let sharing_test =
  Test.make ~name:"sharing/synthetic"
    (Staged.stage (workload_kernel Machines.Plb synthetic_small))

let granularity_test =
  Test.make ~name:"granularity/subpage-access"
    (Staged.stage (granularity_kernel ()))

let cache_org_tests =
  Test.make_grouped ~name:"cache_org"
    [
      Test.make ~name:"rpc/sas-vivt"
        (Staged.stage (workload_kernel Machines.Plb rpc_small));
      Test.make ~name:"rpc/mas-flush"
        (Staged.stage (workload_kernel Machines.Conv_flush rpc_small));
    ]

let micro_ops_tests =
  Test.make_grouped ~name:"micro_ops"
    [
      Test.make ~name:"access/plb" (Staged.stage (access_kernel Machines.Plb));
      Test.make ~name:"access/page-group"
        (Staged.stage (access_kernel Machines.Page_group));
      Test.make ~name:"access/conv-asid"
        (Staged.stage (access_kernel Machines.Conv_asid));
    ]

let locks_test =
  Test.make ~name:"locks/txn-page-group"
    (Staged.stage (workload_kernel Machines.Page_group txn_small))

let server_os_small sys =
  ignore
    (Workloads.Server_os.run
       ~params:
         { Workloads.Server_os.default with clients = 2; calls = 200;
           buffer_pages = 16 }
       sys)

let crossover_test =
  Test.make ~name:"crossover/server-os"
    (Staged.stage (workload_kernel Machines.Plb server_os_small))

let okamoto_test =
  let t = Machines.Plb_machine.create Config.default in
  let sys =
    System_intf.Packed
      ((module Machines.Plb_machine : System_intf.SYSTEM
          with type t = Machines.Plb_machine.t), t)
  in
  let client = System_ops.new_domain sys in
  let data = System_ops.new_segment sys ~pages:2 () in
  let code = System_ops.new_segment sys ~pages:1 () in
  System_ops.attach sys client code Rights.rx;
  System_ops.attach sys client data Rights.none;
  Machines.Plb_machine.guard_segment t ~data ~code Rights.rw;
  System_ops.switch_domain sys client;
  Test.make ~name:"okamoto/guarded-call"
    (Staged.stage (fun () ->
         Machines.Plb_machine.set_code_context t (Some code);
         ignore (System_ops.write sys data.Segment.base);
         Machines.Plb_machine.set_code_context t None))

let dsm_update_small sys =
  ignore
    (Workloads.Dsm.run
       ~params:
         { Workloads.Dsm.default with protocol = Workloads.Dsm.Update;
           pages = 32; refs = 2_000 }
       sys)

let dsm_protocol_test =
  Test.make ~name:"dsm_protocol/update"
    (Staged.stage (workload_kernel Machines.Plb dsm_update_small))

let tag_overhead_test =
  Test.make ~name:"tag_overhead/arith" (Staged.stage (tag_arith_kernel ()))

let all_tests =
  Test.make_grouped ~name:"sasos"
    [
      table1_tests;
      fig1_test;
      fig2_test;
      domain_switch_tests;
      sharing_test;
      granularity_test;
      cache_org_tests;
      micro_ops_tests;
      locks_test;
      crossover_test;
      dsm_protocol_test;
      okamoto_test;
      tag_overhead_test;
    ]

(* --- driver ----------------------------------------------------------- *)

let run_benchmarks () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None ()
  in
  let raw = Benchmark.all cfg instances all_tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (x :: _) -> x
          | Some [] | None -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  let t =
    Util.Tablefmt.create
      [ ("benchmark", Util.Tablefmt.Left); ("ns/run", Util.Tablefmt.Right) ]
  in
  List.iter
    (fun (name, ns) ->
      Util.Tablefmt.add_row t [ name; Printf.sprintf "%.1f" ns ])
    rows;
  Util.Tablefmt.print t

(* Part 1 runs the registry on a domain pool: same report text as the
   serial run (the runner guarantees byte-identical output for any job
   count), but wall-clock bounded by the slowest experiment chain. *)
let run_report () =
  let jobs =
    max 1
      (min
         (List.length Experiments.Registry.all)
         (Domain.recommended_domain_count ()))
  in
  let results = Runner.run ~jobs ~profile:true Experiments.Registry.all in
  print_string (Runner.report_text results);
  Printf.printf "\nPer-experiment wall-clock (jobs=%d):\n" jobs;
  let t =
    Util.Tablefmt.create
      [
        ("experiment", Util.Tablefmt.Left);
        ("status", Util.Tablefmt.Left);
        ("ms", Util.Tablefmt.Right);
        ("minor Mwords", Util.Tablefmt.Right);
      ]
  in
  List.iter
    (fun r ->
      Util.Tablefmt.add_row t
        [
          r.Runner.id;
          (match Runner.error_message r with
          | None -> "ok"
          | Some e -> "FAILED: " ^ e);
          Printf.sprintf "%.1f" (Int64.to_float r.Runner.wall_ns /. 1e6);
          Printf.sprintf "%.1f" (r.Runner.minor_words /. 1e6);
        ])
    results;
  Util.Tablefmt.print t;
  match Runner.merged_profile results with
  | Some s ->
      print_newline ();
      print_string (Obs.render_table s)
  | None -> ()

let () =
  print_endline
    "================================================================";
  print_endline
    " sasos reproduction: Koldinger, Chase & Eggers, ASPLOS 1992";
  print_endline " Part 1 - every table and figure, regenerated";
  print_endline
    "================================================================\n";
  run_report ();
  print_endline
    "\n================================================================";
  print_endline " Part 2 - Bechamel micro-benchmarks (simulator wall-clock)";
  print_endline
    "================================================================\n";
  run_benchmarks ()
