(* Steady end-to-end benchmark of the sasos simulator.

     bench.exe --workload W --seed N --seconds S --trace 0|1
     bench.exe --self-test

   One process runs one workload as a closed loop: a single caller runs
   items back to back on the calling domain (jobs = 1), so neither the
   multi-domain GC nor the host scheduler enters the numbers. A workload
   is an endless sequence of similar items derived from the seed, each on
   inputs of its own; the timed pass runs them until [--seconds] have
   elapsed. Simulated statistics and allocation come from a fixed window
   of first items, so they repeat exactly for a seed.

   The benchmark calls only the library's public functions. It never
   sets a backend, engine or smp default: machines come from
   [Machines.make] and [Machines.make_smp] with explicit arguments.

   With --trace 0 the last stdout line reports the end-to-end metrics;
   with --trace 1 it reports the per-layer metrics of a traced pass over
   the same items as an untraced pass (see README.md). *)

open Sasos

let now_ns = Shim.now_ns
let words = Shim.words

(* ---------- deterministic inputs ---------- *)

(* splitmix64-style finaliser over 63-bit ints: distinct seeds, distinct streams *)
let mix a b =
  let z = ref ((a * 0x1E3779B97F4A7C15) + b + 0x232BE59BD9B4E019) in
  z := (!z lxor (!z lsr 30)) * 0x3F58476D1CE4E5B9;
  z := (!z lxor (!z lsr 27)) * 0x14D049BB133111EB;
  (!z lxor (!z lsr 31)) land 0x3FFF_FFFF

(* ---------- items ---------- *)

type pass = {
  items : int;
  failed : int;
  item_ns : int array;  (** host latency of each item *)
  busy_ns : int;  (** sum of [item_ns] *)
  accesses : int;  (** simulated accesses over the whole pass *)
  digest : int;  (** over the window's items *)
  win : Metrics.t;  (** the window's counters, summed *)
  win_words : int;  (** minor words allocated by the window's items *)
  all_words : int;  (** minor words allocated by every item *)
  heap_mb : float;  (** peak major heap at the end of the window *)
}

type outcome = {
  metrics : unit -> Metrics.t list;
      (** the simulated counters of every machine the item ran *)
  check : unit -> bool;  (** the item's output check *)
}

type prepared = {
  window : int;
      (** the first items, whose simulated counters and allocation are
          reported and digested; every pass runs at least this many *)
  rerunnable : bool;
      (** item [i] can run again on the same set-up; false for a
          stateful rig, whose traced pass needs a fresh set-up *)
  collect : bool;
      (** run a full major collection, untimed, before each item *)
  run_item : Shim.stats option -> int -> outcome;
      (** run item [i]; the clock and the allocation counter stop
          before [metrics] and [check] run *)
  layers : Shim.stats -> pass -> (string * float) list;
      (** workload-specific per-layer values after the traced pass; the
          workload accumulates them only while items run traced *)
  release : unit -> unit;  (** drop large state before the next set-up *)
}

type workload = {
  name : string;
  prepare : ?mutation:Check.Mutate.t -> small:bool -> seed:int -> unit -> prepared;
      (** build the fixtures and warm up; [small] shrinks everything
          for the self-test *)
}

(* Run [f] and return its host nanoseconds when traced, 0 otherwise. *)
let span stats f =
  match stats with
  | None ->
      let r = f () in
      (r, 0)
  | Some _ ->
      let t0 = now_ns () in
      let r = f () in
      (r, now_ns () - t0)

(* A machine built through the shim: the construction is charged to
   machine.create, [seen] tracks the domains and segments it creates. *)
let shimmed stats build =
  Shim.wrap ?stats (Shim.time_create stats build)

let per num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let sorted_ns a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median_ms a =
  let a = sorted_ns a in
  float_of_int a.(Array.length a / 2) /. 1e6

(* The latency at the highest percentile with at least ten items beyond
   it, in ms, and that percentile. *)
let tail a =
  let a = sorted_ns a in
  let n = Array.length a in
  let k = max 0 (n - 11) in
  (float_of_int a.(k) /. 1e6, 100.0 *. float_of_int (k + 1) /. float_of_int n)

let over_allow_check sys seen () =
  not (System_ops.hw_over_allows sys (Shim.probes seen))

(* ---------- table1 and smp-revoke: Table 1 classes on every machine ---------- *)

(* Parameters shrunk from the registry defaults so that one item (one
   class on one machine) takes tens of milliseconds, and items of
   different classes are of similar size. *)
let table1_classes =
  let open Workloads in
  [
    ( "attach",
      fun seed sys ->
        Attach_churn.run
          ~params:{ Attach_churn.default with Attach_churn.iterations = 200; seed }
          sys );
    ( "gc",
      fun seed sys ->
        ignore
          (Gc.run
             ~params:
               { Gc.default with Gc.collections = 2; mutator_refs = 10_000; seed }
             sys) );
    ( "dsm",
      fun seed sys ->
        ignore (Dsm.run ~params:{ Dsm.default with Dsm.refs = 12_000; seed } sys) );
    ( "txn",
      fun seed sys ->
        ignore (Txn.run ~params:{ Txn.default with Txn.txns = 100; seed } sys) );
    ( "checkpoint",
      fun seed sys ->
        ignore
          (Checkpoint.run
             ~params:
               {
                 Checkpoint.default with
                 Checkpoint.checkpoints = 2;
                 refs_between = 6_000;
                 refs_during = 6_000;
                 seed;
               }
             sys) );
    ( "compress",
      fun seed sys ->
        ignore
          (Compress_paging.run
             ~params:{ Compress_paging.default with Compress_paging.refs = 4_000; seed }
             sys) );
  ]

(* The revocation-heavy classes, sized for 4 and 8 simulated cores. *)
let smp_classes =
  let open Workloads in
  [
    ( "gc",
      fun seed sys ->
        ignore
          (Gc.run
             ~params:{ Gc.default with Gc.collections = 1; mutator_refs = 8_000; seed }
             sys) );
    ( "dsm",
      fun seed sys ->
        ignore (Dsm.run ~params:{ Dsm.default with Dsm.refs = 4_000; seed } sys) );
    ( "txn",
      fun seed sys ->
        ignore (Txn.run ~params:{ Txn.default with Txn.txns = 40; seed } sys) );
  ]

type combo = {
  cname : string;
  run : int -> Os.System_intf.packed -> unit;
  label : string;
  build : int -> Os.System_intf.packed;  (** from the item seed *)
}

(* Every class under every configuration (a machine, possibly lifted to
   several cores). *)
let combos ~classes ~configs =
  Array.of_list
    (List.concat_map
       (fun (cname, run) -> List.map (fun (label, build) -> { cname; run; label; build }) configs)
       classes)

(* Item [i] runs combination [i mod n] on inputs of its own: items [i]
   and [i + n] share a configuration, not a seed. *)
let combo_item k combos i =
  let n = Array.length combos in
  let c = combos.(i mod n) in
  (c, mix (mix (mix k (i / n)) (Hashtbl.hash c.cname)) (Hashtbl.hash c.label))

(* Items of one workload run on one freshly built machine each; one item
   of every [warm] combination runs before any timing. [steps] counts smp
   scheduler steps of traced items on smp-lifted machines. *)
let class_items_prepared ~smp ~collect ~seed ~window combos ~warm =
  Array.iteri
    (fun i _ ->
      let c, s = combo_item (mix seed 0x5EED) warm i in
      c.run s (c.build s))
    warm;
  let steps = ref 0 in
  let run_item stats i =
    let c, s = combo_item seed combos i in
    let sys, seen = shimmed stats (fun () -> c.build s) in
    c.run s sys;
    {
      metrics =
        (fun () ->
          if smp && stats <> None then
            Option.iter (fun h -> steps := !steps + h.Smp.h_steps ()) (Smp.last ());
          [ System_ops.metrics sys ]);
      check = over_allow_check sys seen;
    }
  in
  let layers st (t : pass) =
    let n = float_of_int t.items in
    let sum a = Array.fold_left ( + ) 0 a in
    let self =
      [ ("workloads.self_ms", float_of_int (t.busy_ns - sum st.Shim.ns) /. 1e6 /. n);
        ("workloads.self_words", float_of_int (t.all_words - sum st.Shim.words) /. n) ]
    in
    let per_item x = float_of_int x /. float_of_int window in
    let smp_layers =
      [ ("smp.os_op_ms", float_of_int (sum st.Shim.ns - st.Shim.ns.(Shim.access_op)) /. 1e6 /. n);
        ("smp.os_op_words",
          float_of_int (sum st.Shim.words - st.Shim.words.(Shim.access_op)) /. n);
        ("smp.shootdowns", per_item t.win.Metrics.shootdowns);
        ("smp.ipis", per_item t.win.Metrics.ipis);
        ("smp.stale_hits", per_item t.win.Metrics.stale_hits);
        ("smp.steps", float_of_int !steps /. n) ]
    in
    if smp then self @ smp_layers else self
  in
  { window; rerunnable = true; collect; run_item; layers; release = ignore }

let table1 =
  let prepare ?mutation:_ ~small ~seed () =
    let machines = if small then [ List.hd Machines.all ] else Machines.all in
    let all =
      combos ~classes:table1_classes
        ~configs:(List.map (fun (mname, v) -> (mname, fun _ -> Machines.make v Config.default)) machines)
    in
    (* A compress item on conv-flush allocates ~500 MB; without a
       collection between items its major-GC debt lands on whichever
       item follows, and per-item times moved by up to 75% with the
       seed's GC phase. The other workloads measured steadier without. *)
    class_items_prepared ~smp:false ~collect:true ~seed
      ~window:(Array.length all * if small then 1 else 2)
      all
      ~warm:(if small then [||] else all)
  in
  { name = "table1"; prepare }

let smp_revoke =
  let prepare ?mutation:_ ~small ~seed () =
    let machines = if small then [ List.hd Machines.all ] else Machines.all in
    let configs cores purges =
      List.concat_map
        (fun c ->
          List.concat_map
            (fun purge ->
              List.map
                (fun (mname, v) ->
                  ( Printf.sprintf "%s/%d/%s" mname c (Smp.purge_to_string purge),
                    fun item_seed ->
                      Machines.make_smp v ~cores:c ~purge
                        { Config.default with Config.seed = item_seed } ))
                machines)
            purges)
        cores
    in
    let all =
      combos ~classes:smp_classes
        ~configs:(if small then configs [ 4 ] [ Smp.Eager ] else configs [ 4; 8 ] Smp.all_purges)
    in
    class_items_prepared ~smp:true ~collect:false ~seed ~window:(Array.length all) all
      ~warm:
        (if small then [||]
         else combos ~classes:smp_classes ~configs:(configs [ 8 ] [ Smp.Eager ]))
  in
  { name = "smp-revoke"; prepare }

(* ---------- check-diff: generated scripts against the oracle ---------- *)

let check_ops = 200

(* One item is a batch of scripts: the tail percentile of single ~5 ms
   scripts is set by brief bursts of neighbour load, and it moved by 16%
   between runs, with batches of 4 still by 14%. *)
let scripts_per_item ~small = if small then 2 else 8

let check_diff =
  let prepare ?mutation ~small ~seed () =
    let geom = Check.Op.default_geom in
    let keep = Option.map (fun m -> m.Check.Mutate.keep) mutation in
    let gen_ns = ref 0 and oracle_ns = ref 0 and exec_ns = ref 0 in
    let script_outcome stats script_seed =
      let script, g =
        span stats (fun () ->
            Check.Gen.script (Util.Prng.create ~seed:script_seed) geom ~ops:check_ops)
      in
      let want, o = span stats (fun () -> Check.Oracle.run geom script) in
      let runs, e =
        span stats (fun () ->
            List.map
              (fun (_, v) ->
                let sys, _ = shimmed stats (fun () -> Machines.make v Config.default) in
                (Check.Exec.run_packed ?keep geom script sys, sys))
              Machines.all)
      in
      gen_ns := !gen_ns + g;
      oracle_ns := !oracle_ns + o;
      exec_ns := !exec_ns + e;
      {
        metrics = (fun () -> List.map (fun (_, sys) -> System_ops.metrics sys) runs);
        check =
          (fun () ->
            List.for_all
              (fun (r, _) -> r.Check.Exec.outcomes = want && not r.Check.Exec.over_allow)
              runs);
      }
    in
    let k = scripts_per_item ~small in
    let batch stats seed i =
      let os = List.init k (fun j -> script_outcome stats (Check.Harness.script_seed ~seed ((i * k) + j))) in
      {
        metrics = (fun () -> List.concat_map (fun o -> o.metrics ()) os);
        check = (fun () -> List.for_all (fun o -> o.check ()) os);
      }
    in
    for i = 0 to (if small then 0 else 24) do
      ignore (batch None (mix seed 0x5EED) i)
    done;
    let layers _ (t : pass) =
      let ms x = float_of_int !x /. 1e6 /. float_of_int (t.items * k) in
      [ ("check.gen_ms", ms gen_ns); ("check.oracle_ms", ms oracle_ns);
        ("check.exec_ms", ms exec_ns) ]
    in
    {
      window = (if small then 4 else 125);
      rerunnable = true;
      collect = false;
      run_item = (fun stats i -> batch stats seed i);
      layers;
      release = ignore;
    }
  in
  { name = "check-diff"; prepare }

(* ---------- scale-1m: the sharded million-domain rig ---------- *)

let scale_config ~small ~seed =
  {
    Shard.default with
    Shard.domains = (if small then 4096 else 1_000_000);
    pages = (if small then 65_536 else 10_000_000);
    shards = 4;
    rounds = 0;
    active = 112;
    burst = 16;
    rotate = 0;
    churn = 0.01;
    pages_per_seg = 16;
    segs_per_dom = 2;
    tlb_entries = 1024;
    plb_entries = 1024;
    frames = 1024;
    variant = Machines.Plb;
    seed;
  }

(* One item is a batch of rounds. The tail percentile of single rounds
   (~1 ms) moved by a third between runs; with 20 and 50 rounds per item
   a slow second of neighbour load still set it, and it moved by half
   and by 17%. *)
let rounds_per_item ~small = if small then 2 else 100

let scale_1m =
  let prepare ?mutation:_ ~small ~seed () =
    let cfg = scale_config ~small ~seed in
    let t0 = now_ns () in
    let rig = ref (Some (Shard.prepare cfg)) in
    let prepare_ns = now_ns () - t0 in
    let get () = Option.get !rig in
    Shard.rounds (get ()) (if small then 4 else 100);
    let k = rounds_per_item ~small in
    let per_item = k * cfg.Shard.active * cfg.Shard.burst in
    let prev = ref (Shard.report (get ())) in
    (* per-round host times of traced items, kept in a preallocated
       array so the traced pass allocates exactly what the untraced does *)
    let round_ns = Array.make (1 lsl 16) 0 and n_rounds = ref 0 in
    let timed_round () =
      let t0 = now_ns () in
      Shard.rounds (get ()) 1;
      if !n_rounds < Array.length round_ns then begin
        round_ns.(!n_rounds) <- now_ns () - t0;
        incr n_rounds
      end
    in
    let rounds_ms () = median_ms (Array.sub round_ns 0 !n_rounds) in
    let run_item stats _ =
      (match stats with
      | None -> Shard.rounds (get ()) k
      | Some _ ->
          for _ = 1 to k do
            timed_round ()
          done);
      let delta =
        lazy
          (let r = Shard.report (get ()) in
           let d = Metrics.diff r.Shard.aggregate_traffic !prev.Shard.aggregate_traffic in
           prev := r;
           d)
      in
      {
        metrics = (fun () -> [ Lazy.force delta ]);
        check = (fun () -> (Lazy.force delta).Metrics.accesses = per_item);
      }
    in
    let layers _ _ =
      let r = Shard.report (get ()) in
      let traffic = r.Shard.aggregate_traffic in
      let round_ms = rounds_ms () in
      (* the same warmed rig with churn off: local execution alone *)
      Shard.set_churn (get ()) 0.0;
      Shard.rounds (get ()) 2;
      n_rounds := 0;
      for _ = 1 to if small then 10 else 200 do
        timed_round ()
      done;
      let nochurn_ms = rounds_ms () in
      Shard.set_churn (get ()) cfg.Shard.churn;
      let sum f = Array.fold_left (fun acc s -> acc + f s) 0 r.Shard.shards in
      [
        ("shard.prepare_s", float_of_int prepare_ns /. 1e9);
        ("shard.round_ms", round_ms);
        ("shard.round_nochurn_ms", nochurn_ms);
        ( "shard.msgs_per_round",
          float_of_int (sum (fun s -> s.Shard.msgs_in)) /. float_of_int r.Shard.rounds_run );
        ("shard.proxies", float_of_int (sum (fun s -> s.Shard.proxies)));
        ("shard.faults_per_access", per traffic.Metrics.page_faults traffic.Metrics.accesses);
      ]
    in
    {
      window = (if small then 10 else 5);
      rerunnable = false;
      collect = false;
      run_item;
      layers;
      release = (fun () -> rig := None);
    }
  in
  { name = "scale-1m"; prepare }

let workloads = [ table1; smp_revoke; scale_1m; check_diff ]

(* ---------- the timed pass ---------- *)

(* FNV-1a over ints, folded over every item's Metrics.fields in order. *)
let fnv_prime = 0x100000001b3
let fnv_init = 0x0bf29ce484222325
let fold_fields h (m : Metrics.t) =
  List.fold_left (fun h (_, v) -> (h lxor v) * fnv_prime) h (Metrics.fields m)

(* The peak major heap so far, in MiB. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Run items back to back until [seconds] have elapsed, but at least the
   window; with [items] given, run exactly that many instead. *)
let run_pass ?stats ?items p ~seconds =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let lat = ref (Array.make 1024 0) in
  let win = Metrics.create () in
  let n = ref 0 and failed = ref 0 and busy = ref 0 and accesses = ref 0 in
  let digest = ref fnv_init and win_words = ref 0 and all_words = ref 0 in
  let heap_mb = ref 0.0 in
  let more () =
    match items with
    | Some k -> !n < k
    | None -> !n < p.window || now_ns () < deadline
  in
  while more () do
    let i = !n in
    if p.collect then Gc.full_major ();
    let w0 = words () in
    let t0 = now_ns () in
    let o = p.run_item stats i in
    let t1 = now_ns () in
    let w1 = words () in
    let dt = t1 - t0 in
    if i >= Array.length !lat then begin
      let a = Array.make (2 * i) 0 in
      Array.blit !lat 0 a 0 i;
      lat := a
    end;
    !lat.(i) <- dt;
    busy := !busy + dt;
    all_words := !all_words + (w1 - w0);
    let ms = o.metrics () in
    List.iter (fun (m : Metrics.t) -> accesses := !accesses + m.Metrics.accesses) ms;
    let ok = o.check () in
    if i < p.window then begin
      digest := (!digest lxor List.fold_left fold_fields fnv_init ms) * fnv_prime;
      win_words := !win_words + (w1 - w0);
      List.iter (Metrics.add_into win) ms;
      (* at the end of the window, not of the run: a stateful rig keeps
         growing, so a later reading would follow the host's speed *)
      if i = p.window - 1 then heap_mb := peak_heap_mb ()
    end;
    if not ok then incr failed;
    incr n
  done;
  {
    items = !n;
    failed = !failed;
    item_ns = Array.sub !lat 0 !n;
    busy_ns = !busy;
    accesses = !accesses;
    digest = !digest land 0xFFFF_FFFF_FFFF;
    win;
    win_words = !win_words;
    all_words = !all_words;
    heap_mb = !heap_mb;
  }

(* ---------- host-speed probe ---------- *)

(* A fixed integer loop (core speed) and a fixed random walk of 1M steps
   over a 32 MiB array (memory latency under the neighbours' load).
   Printed beside each run so a reader can tell the host moved, not
   the program; not a benchmark metric. *)
let host_probe label =
  let t0 = now_ns () in
  let x = ref 1 in
  for _ = 1 to 50_000_000 do
    x := (!x * 1103515245) + 12345
  done;
  let t1 = now_ns () in
  let n = 1 lsl 22 in
  (* Sattolo's shuffle: one cycle through every slot *)
  let a = Array.init n Fun.id in
  let s = ref 12345 in
  for i = n - 1 downto 1 do
    s := (!s * 0x2545F4914F6CDD1D) + 1442695040888963407;
    let k = (!s lsr 17) mod i in
    let v = a.(i) in
    a.(i) <- a.(k);
    a.(k) <- v
  done;
  let t2 = now_ns () in
  let j = ref 0 in
  for _ = 1 to n / 4 do
    j := a.(!j)
  done;
  let t3 = now_ns () in
  Printf.printf "host-probe %s: int_loop_ms=%.1f array_walk_ms=%.1f (sink %d)\n" label
    (float_of_int (t1 - t0) /. 1e6)
    (float_of_int (t3 - t2) /. 1e6)
    ((!j + !x) land 1)

(* ---------- output ---------- *)

let json_metric (name, unit, v) =
  let v = if Float.is_finite v then v else 0.0 in
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;  (** name, unit, value *)
}

let print_result { correct; attempted; failed; metrics } =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " (List.map json_metric metrics))

let setup_runs = 3

(* Set up [k] times from a collected heap and keep the last; returns the
   prepared workload and every set-up's seconds. *)
let setups w ~small ~seed k =
  let rec go k acc prev =
    Option.iter (fun p -> p.release ()) prev;
    Gc.compact ();
    let t0 = now_ns () in
    let p = w.prepare ~small ~seed () in
    let dt = float_of_int (now_ns () - t0) /. 1e9 in
    if k = 1 then (p, List.rev (dt :: acc)) else go (k - 1) (dt :: acc) (Some p)
  in
  go k [] None

let end_to_end w ~seed ~seconds =
  let p, times = setups w ~small:false ~seed setup_runs in
  let setup_s = List.nth (List.sort compare times) (List.length times / 2) in
  let r = run_pass p ~seconds in
  let tail_ms, pct = tail r.item_ns in
  Printf.printf "workload %s seed %d: %d items (window %d) in %.2f s busy\n" w.name seed
    r.items p.window (float_of_int r.busy_ns /. 1e9);
  Printf.printf "setup_s runs: %s\n" (String.concat " " (List.map (Printf.sprintf "%.4f") times));
  Printf.printf "item_tail_ms is p%.2f of %d items\n" pct r.items;
  Printf.printf "digest %012x\n" r.digest;
  let acc = r.win.Metrics.accesses in
  {
    correct = r.failed = 0;
    attempted = r.items;
    failed = r.failed;
    metrics =
      [
        ("setup_s", "s", setup_s);
        ("sim_accesses_per_s", "1/s", float_of_int r.accesses /. (float_of_int r.busy_ns /. 1e9));
        ("item_p50_ms", "ms", median_ms r.item_ns);
        ("item_tail_ms", "ms", tail_ms);
        ("alloc_words_per_access", "words", per r.win_words acc);
        ("peak_heap_mb", "MB", r.heap_mb);
        ("sim_cycles_per_access", "cycles", per r.win.Metrics.cycles acc);
        ("ok_share", "share", 1.0 -. per r.failed r.items);
      ];
  }

let hit_ratio h m = per h (h + m)

(* Every per-layer metric, in BENCHMARK.json order; a layer the workload
   does not reach reports 0. *)
let layer_names =
  List.concat_map
    (fun op ->
      [ ("machine." ^ op ^ ".calls", "count"); ("machine." ^ op ^ ".ms", "ms");
        ("machine." ^ op ^ ".words", "words") ])
    (Array.to_list Shim.op_names)
  @ [
      ("workloads.self_ms", "ms"); ("workloads.self_words", "words");
      ("smp.os_op_ms", "ms"); ("smp.os_op_words", "words");
      ("smp.shootdowns", "count"); ("smp.ipis", "count");
      ("smp.stale_hits", "count"); ("smp.steps", "count");
      ("shard.prepare_s", "s"); ("shard.round_ms", "ms");
      ("shard.round_nochurn_ms", "ms"); ("shard.msgs_per_round", "count");
      ("shard.proxies", "count"); ("shard.faults_per_access", "1/access");
      ("check.gen_ms", "ms"); ("check.oracle_ms", "ms"); ("check.exec_ms", "ms");
      ("hw.plb.hit_ratio", "ratio"); ("hw.tlb.hit_ratio", "ratio");
      ("hw.pg.hit_ratio", "ratio"); ("hw.cache.hit_ratio", "ratio");
      ("hw.entries_inspected", "1/access"); ("hw.entries_purged", "1/access");
      ("os.kernel_entries", "1/access"); ("os.page_faults_per_access", "1/access");
      ("bench.trace_overhead", "share");
    ]

(* An untraced pass over half the time, then a traced pass over exactly
   the same items; the two digests must agree. *)
let traced w ~seed ~seconds =
  let p, _ = setups w ~small:false ~seed 1 in
  let u = run_pass p ~seconds:(seconds /. 2.0) in
  let p =
    if p.rerunnable then p
    else begin
      p.release ();
      Gc.compact ();
      w.prepare ~small:false ~seed ()
    end
  in
  let st = Shim.stats () in
  let t = run_pass ~stats:st ~items:u.items p ~seconds in
  let n = t.items in
  let overhead = (float_of_int t.busy_ns /. float_of_int u.busy_ns) -. 1.0 in
  let same = t.digest = u.digest in
  Printf.printf "workload %s seed %d: traced %d items, overhead %.1f%% over untraced\n" w.name
    seed n (100.0 *. overhead);
  Printf.printf "digest untraced %012x traced %012x%s\n" u.digest t.digest
    (if same then "" else " MISMATCH");
  let m = t.win and acc = t.win.Metrics.accesses in
  let per_item x = float_of_int x /. float_of_int n in
  let ops =
    List.concat
      (List.mapi
         (fun i op ->
           [ ("machine." ^ op ^ ".calls", per_item st.Shim.calls.(i));
             ("machine." ^ op ^ ".ms", per_item st.Shim.ns.(i) /. 1e6);
             ("machine." ^ op ^ ".words", per_item st.Shim.words.(i)) ])
         (Array.to_list Shim.op_names))
  in
  let values =
    ops @ p.layers st t
    @ [
        ("hw.plb.hit_ratio", hit_ratio m.Metrics.plb_hits m.Metrics.plb_misses);
        ("hw.tlb.hit_ratio", hit_ratio m.Metrics.tlb_hits m.Metrics.tlb_misses);
        ("hw.pg.hit_ratio", hit_ratio m.Metrics.pg_hits m.Metrics.pg_misses);
        ("hw.cache.hit_ratio", hit_ratio m.Metrics.cache_hits m.Metrics.cache_misses);
        ("hw.entries_inspected", per m.Metrics.entries_inspected acc);
        ("hw.entries_purged", per m.Metrics.entries_purged acc);
        ("os.kernel_entries", per m.Metrics.kernel_entries acc);
        ("os.page_faults_per_access", per m.Metrics.page_faults acc);
        ("bench.trace_overhead", overhead);
      ]
  in
  let failed = u.failed + t.failed in
  {
    correct = failed = 0 && same;
    attempted = u.items + t.items;
    failed;
    metrics =
      List.map
        (fun (name, unit) -> (name, unit, Option.value (List.assoc_opt name values) ~default:0.0))
        layer_names;
  }

(* ---------- self-test ---------- *)

(* The window of each workload at its small size. *)
let one_window ?mutation ?stats w seed =
  let p = w.prepare ?mutation ~small:true ~seed () in
  let r = run_pass ?stats p ~seconds:0.0 in
  p.release ();
  r

let self_test () =
  let fails = ref 0 in
  let expect what ok =
    Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
    if not ok then incr fails
  in
  List.iter
    (fun w ->
      let a = one_window w 1 in
      let a' = one_window w 1 in
      let b = one_window w 2 in
      let t = one_window ~stats:(Shim.stats ()) w 1 in
      expect (w.name ^ ": output checks pass") (a.failed = 0 && b.failed = 0 && t.failed = 0);
      expect (w.name ^ ": same seed, same digest") (a.digest = a'.digest);
      expect (w.name ^ ": other seed, other digest") (a.digest <> b.digest);
      expect (w.name ^ ": traced digest equals untraced") (a.digest = t.digest);
      (* against the second run: the first in a process also pays
         one-time library initialisation *)
      expect (w.name ^ ": tracing allocates nothing") (a'.win_words = t.win_words))
    workloads;
  let mutation = Option.get (Check.Mutate.find "skip-detach") in
  let m = one_window ~mutation check_diff 1 in
  expect "check-diff: a planted skip-detach bug fails items" (m.failed > 0);
  if !fails > 0 then exit 1

(* ---------- main ---------- *)

let usage =
  "usage: bench --workload {table1|smp-revoke|scale-1m|check-diff} --seed N \
   --seconds S --trace {0|1}\n       bench --self-test"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let self = ref false in
  let fail msg =
    prerr_endline msg;
    prerr_endline usage;
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some n -> seed := n | None -> fail ("bad --seed " ^ v));
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0.0 -> seconds := s
        | _ -> fail ("bad --seconds " ^ v));
        parse rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> trace := 0 | "1" -> trace := 1 | _ -> fail ("bad --trace " ^ v));
        parse rest
    | "--self-test" :: rest -> self := true; parse rest
    | arg :: _ -> fail ("unknown argument " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !self then self_test ()
  else
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | None -> fail ("unknown workload " ^ !workload)
    | Some w ->
        host_probe "before";
        let r =
          if !trace = 0 then end_to_end w ~seed:!seed ~seconds:!seconds
          else traced w ~seed:!seed ~seconds:!seconds
        in
        host_probe "after";
        print_result r
