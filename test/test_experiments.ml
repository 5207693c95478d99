(* Directional checks on the experiment layer: each experiment runs,
   produces a report, and the headline shapes the paper predicts hold in
   the measured numbers. These re-run the underlying measurements directly
   (not by parsing report text). *)

open Sasos
open Sasos.Os

let test_registry_runs () =
  Alcotest.(check int) "twenty-one experiments" 21
    (List.length Experiments.Registry.all);
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (e.Experiments.Experiment.id ^ " exists in find")
        true
        (Experiments.Registry.find e.Experiments.Experiment.id <> None))
    Experiments.Registry.all

(* run the cheap experiments end to end; expensive ones are covered by the
   bench harness *)
let test_reports_nonempty () =
  List.iter
    (fun id ->
      match Experiments.Registry.find id with
      | None -> Alcotest.fail ("missing experiment " ^ id)
      | Some e ->
          let report = e.Experiments.Experiment.run () in
          Alcotest.(check bool) (id ^ " non-empty") true
            (String.length report > 100))
    [ "tag_overhead"; "micro_ops" ]

let micro_costs variant =
  (* mirror of e_micro_ops.measure, reduced to the ops we assert on *)
  let sys = Machines.make variant Config.default in
  let d0 = System_ops.new_domain sys in
  let d1 = System_ops.new_domain sys in
  let seg = System_ops.new_segment sys ~pages:32 () in
  System_ops.attach sys d0 seg Rights.rw;
  System_ops.attach sys d1 seg Rights.rw;
  System_ops.switch_domain sys d0;
  for i = 0 to 31 do
    ignore (System_ops.access sys Access.Write (Segment.page_va seg i))
  done;
  System_ops.switch_domain sys d1;
  for i = 0 to 31 do
    ignore (System_ops.access sys Access.Read (Segment.page_va seg i))
  done;
  System_ops.switch_domain sys d0;
  let m = System_ops.metrics sys in
  let meter op =
    let before = Metrics.copy m in
    op ();
    (Metrics.diff m before).Metrics.cycles
  in
  let switch = meter (fun () -> System_ops.switch_domain sys d1) in
  let detach = meter (fun () -> System_ops.detach sys d1 seg) in
  (switch, detach)

let test_switch_ordering () =
  (* §4.1.4: PLB switch < page-group switch < conv-flush switch *)
  let plb, _ = micro_costs Machines.Plb in
  let pg, _ = micro_costs Machines.Page_group in
  let flush, _ = micro_costs Machines.Conv_flush in
  Alcotest.(check bool) "plb < page-group" true (plb < pg);
  Alcotest.(check bool) "page-group < conv-flush" true (pg < flush)

let test_detach_ordering () =
  (* Table 1: detach sweeps the PLB but only drops a pg-cache entry *)
  let _, plb = micro_costs Machines.Plb in
  let _, pg = micro_costs Machines.Page_group in
  Alcotest.(check bool) "page-group detach cheaper" true (pg < plb)

let test_sharing_duplication_shape () =
  (* §3.1: PLB entries grow with sharing; page-group stays at one *)
  let count variant sharing =
    let sys = Machines.make variant Config.default in
    let domains = Array.init sharing (fun _ -> System_ops.new_domain sys) in
    let seg = System_ops.new_segment sys ~pages:4 () in
    Array.iter (fun d -> System_ops.attach sys d seg Rights.rw) domains;
    Array.iter
      (fun d ->
        System_ops.switch_domain sys d;
        ignore (System_ops.access sys Access.Read (Segment.page_va seg 0)))
      domains;
    System_ops.resident_prot_entries_for sys (Segment.page_va seg 0)
  in
  Alcotest.(check int) "plb x4" 4 (count Machines.Plb 4);
  Alcotest.(check int) "pg x4 = 1" 1 (count Machines.Page_group 4);
  Alcotest.(check int) "conv x4" 4 (count Machines.Conv_asid 4)

let test_sas_vivt_no_synonyms () =
  (* §2.2: RPC on the SAS machine produces no synonyms; MAS-asid does *)
  let syn variant =
    let m, _ =
      Experiments.Experiment.run_on variant Config.default (fun sys ->
          Workloads.Rpc.run ~params:{ Workloads.Rpc.default with calls = 200 } sys)
    in
    m.Metrics.cache_synonyms
  in
  Alcotest.(check int) "SAS: zero synonyms" 0 (syn Machines.Plb);
  Alcotest.(check bool) "MAS-asid: synonyms occur" true
    (syn Machines.Conv_asid > 0)

let test_pg_cache_capacity_cliff () =
  (* Figure 2 shape: pg-cache of size >= active groups has ~no misses *)
  let miss_ratio entries groups =
    let config = Config.v ~pg_entries:entries () in
    let params =
      {
        Sasos.Workloads.Synthetic.default with
        domains = 2;
        shared_segments = groups;
        sharing = 2;
        shared_frac = 1.0;
        theta = 0.0;
        switch_period = 5_000;
        refs = 10_000;
      }
    in
    let m, _ =
      Experiments.Experiment.run_on Machines.Page_group config (fun sys ->
          Sasos.Workloads.Synthetic.run ~params sys)
    in
    Metrics.pg_miss_ratio m
  in
  Alcotest.(check bool) "4 entries / 16 groups thrashes" true
    (miss_ratio 4 16 > 0.2);
  Alcotest.(check bool) "32 entries / 16 groups fine" true
    (miss_ratio 32 16 < 0.02)

let test_granularity_shape () =
  (* §4.3: the multi-grain PLB turns a big uniform segment into one entry *)
  let refills shifts =
    let config = Config.v ~plb_shifts:shifts () in
    let sys = Machines.make Machines.Plb config in
    let d = System_ops.new_domain sys in
    let seg = System_ops.new_segment sys ~align_shift:22 ~pages:1024 () in
    System_ops.attach sys d seg Rights.rw;
    System_ops.switch_domain sys d;
    let rng = Util.Prng.create ~seed:5 in
    for _ = 1 to 3_000 do
      ignore
        (System_ops.access sys Access.Read
           (Segment.page_va seg (Util.Prng.int rng 1024)))
    done;
    (System_ops.metrics sys).Metrics.plb_refills
  in
  let fine = refills [ 12 ] in
  let multi = refills [ 12; 22 ] in
  Alcotest.(check int) "coarse: single refill" 1 multi;
  Alcotest.(check bool) "fine-only thrashes" true (fine > 100)

let test_table1_experiment_runs () =
  (* the headline experiment end to end; sanity: report contains each
     Table 1 workload *)
  match Experiments.Registry.find "table1" with
  | None -> Alcotest.fail "table1 missing"
  | Some e ->
      let report = e.Experiments.Experiment.run () in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      List.iter
        (fun w ->
          Alcotest.(check bool) ("mentions " ^ w) true (contains report w))
        [ "gc"; "dsm"; "txn"; "checkpoint"; "compress"; "attach" ]

let suite =
  [
    Alcotest.test_case "registry" `Quick test_registry_runs;
    Alcotest.test_case "cheap reports non-empty" `Quick test_reports_nonempty;
    Alcotest.test_case "switch cost ordering" `Quick test_switch_ordering;
    Alcotest.test_case "detach cost ordering" `Quick test_detach_ordering;
    Alcotest.test_case "sharing duplication shape" `Quick
      test_sharing_duplication_shape;
    Alcotest.test_case "SAS VIVT has no synonyms" `Quick
      test_sas_vivt_no_synonyms;
    Alcotest.test_case "pg-cache capacity cliff" `Quick
      test_pg_cache_capacity_cliff;
    Alcotest.test_case "granularity shape" `Quick test_granularity_shape;
    Alcotest.test_case "table1 runs" `Slow test_table1_experiment_runs;
  ]
