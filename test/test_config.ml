open Sasos

let test_defaults () =
  let c = Config.default in
  Alcotest.(check int) "tlb entries" 64 (c.Config.tlb_sets * c.Config.tlb_ways);
  Alcotest.(check int) "plb entries" 64 (c.Config.plb_sets * c.Config.plb_ways);
  Alcotest.(check int) "pg cache" 16 c.Config.pg_entries;
  Alcotest.(check int) "no L2" 0 c.Config.l2_bytes;
  Alcotest.(check (list int)) "plb grain follows geometry" [ 12 ]
    c.Config.plb_shifts

let test_overrides () =
  let geom = Geometry.v ~prot_shift:7 () in
  let c = Config.v ~geom ~pg_entries:4 ~l2_bytes:65536 () in
  Alcotest.(check int) "pg entries" 4 c.Config.pg_entries;
  Alcotest.(check int) "l2" 65536 c.Config.l2_bytes;
  (* plb_shifts defaults from the supplied geometry's protection grain *)
  Alcotest.(check (list int)) "plb grain" [ 7 ] c.Config.plb_shifts

let test_explicit_shifts () =
  let c = Config.v ~plb_shifts:[ 12; 22 ] () in
  Alcotest.(check (list int)) "multi-grain" [ 12; 22 ] c.Config.plb_shifts

let test_machines_respect_config () =
  (* a 4-entry PLB must thrash a 16-page working set *)
  let c = Config.v ~plb_sets:1 ~plb_ways:4 () in
  let sys = Machines.make Machines.Plb c in
  let d = Os.System_ops.new_domain sys in
  let seg = Os.System_ops.new_segment sys ~pages:16 () in
  Os.System_ops.attach sys d seg Rights.rw;
  Os.System_ops.switch_domain sys d;
  for round = 1 to 3 do
    ignore round;
    for i = 0 to 15 do
      ignore (Os.System_ops.read sys (Os.Segment.page_va seg i))
    done
  done;
  let m = Os.System_ops.metrics sys in
  Alcotest.(check bool) "thrash" true (Metrics.plb_miss_ratio m > 0.5)

let test_cost_model_override () =
  let cost = Hw.Cost_model.v ~kernel_trap:1000 () in
  let c = Config.v ~cost () in
  let sys = Machines.make Machines.Plb c in
  let d = Os.System_ops.new_domain sys in
  let seg = Os.System_ops.new_segment sys ~pages:1 () in
  Os.System_ops.attach sys d seg Rights.rw;
  Os.System_ops.switch_domain sys d;
  let m = Os.System_ops.metrics sys in
  let before = m.Metrics.cycles in
  ignore (Os.System_ops.read sys seg.Os.Segment.base);
  (* the PLB miss path pays the inflated trap cost *)
  Alcotest.(check bool) "trap cost honored" true (m.Metrics.cycles - before > 1000)

let suite =
  [
    Alcotest.test_case "defaults" `Quick test_defaults;
    Alcotest.test_case "overrides" `Quick test_overrides;
    Alcotest.test_case "explicit plb shifts" `Quick test_explicit_shifts;
    Alcotest.test_case "machines respect config" `Quick
      test_machines_respect_config;
    Alcotest.test_case "cost model override" `Quick test_cost_model_override;
  ]
