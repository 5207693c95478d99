let all =
  [
    E_table1.experiment;
    E_op_profile.experiment;
    E_breakdown.experiment;
    E_variance.experiment;
    E_micro_ops.experiment;
    E_fig1_plb.experiment;
    E_fig2_pg.experiment;
    E_domain_switch.experiment;
    E_sharing.experiment;
    E_area_fair.experiment;
    E_off_chip_tlb.experiment;
    E_granularity.experiment;
    E_cache_org.experiment;
    E_attach.experiment;
    E_locks.experiment;
    E_dsm_protocol.experiment;
    E_crossover.experiment;
    E_okamoto.experiment;
    E_smp_coherence.experiment;
    E_tag_overhead.experiment;
    E_scale.experiment;
  ]

let find id = List.find_opt (fun e -> e.Experiment.id = id) all
let ids = List.map (fun e -> e.Experiment.id) all

let select wanted =
  match List.find_opt (fun id -> find id = None) wanted with
  | Some id ->
      Error (Printf.sprintf "unknown experiment %S (try 'sasos list')" id)
  | None -> Ok (List.filter (fun e -> List.mem e.Experiment.id wanted) all)

let run_all () =
  String.concat "\n"
    (List.map
       (fun e -> Experiment.header e ^ e.Experiment.run ())
       all)
