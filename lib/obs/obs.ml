module M = Sasos_hw.Metrics
module P = Sasos_hw.Probe
module Histogram = Sasos_util.Histogram
module Tablefmt = Sasos_util.Tablefmt

let cpa_buckets = 40
let cpa_bucket_width = 25

type op_row = { scope : string; op : string; count : int; delta : M.t }
type phase_row = { phase : string; p_count : int; p_cycles : int }
type phase_event = { pname : string; ts : int; dur : int; depth : int }
type flow_event = { fl_id : int; fl_name : string; fl_ts : int }

type sample = {
  s_scope : string;
  s_clock : int;
  s_accesses : int;
  s_cycles : int;
  d_accesses : int;
  d_cycles : int;
  cache_mr : float;
  plb_mr : float;
  tlb_mr : float;
  pg_mr : float;
  fault_rate : float;
  g_backlog : int;
  g_proxies : int;
  g_skew : float;
  occupancy : int array;
}

type summary = {
  sample_every : int;
  ring_capacity : int;
  machines : (string * int) list;
  total_cycles : int;
  clock : int;
  ops : op_row list;
  phases : phase_row list;
  phase_events : phase_event list;
  phase_events_dropped : int;
  flows_out : flow_event list;
  flows_in : flow_event list;
  flows_dropped : int;
  samples : sample list;
  samples_seen : int;
  cpa_hist : int array;
  wall_ns : int64;
  track : int;  (* -1 = untracked *)
  label : string;  (* "" = none *)
  tracks : summary list;  (* per-track sections of a merge_tracks *)
}

type op_acc = { mutable a_count : int; a_delta : M.t }
type phase_acc = { mutable pa_count : int; mutable pa_cycles : int }
type open_phase = { op_name : string; op_start : int; op_depth : int }

type state = {
  sample_every : int;
  ring : sample array;
  mutable ring_head : int;  (* next write slot *)
  mutable ring_len : int;
  mutable ring_seen : int;
  cpa : Histogram.t;
  mutable clock : int;  (* virtual cycles: sum of completed op deltas *)
  ops : (string * string, op_acc) Hashtbl.t;
  phase_rows : (string, phase_acc) Hashtbl.t;
  mutable phase_stack : open_phase list;
  mutable pevents : phase_event list;  (* newest first *)
  mutable pevent_count : int;
  mutable pevents_dropped : int;
  max_phase_events : int;
  mutable flows_out : flow_event list;  (* newest first *)
  mutable flows_in : flow_event list;  (* newest first *)
  mutable flow_count : int;
  mutable flows_dropped : int;
  max_flow_events : int;
  track : int;
  label : string;
  mutable g_backlog : int;
  mutable g_proxies : int;
  mutable g_skew : float;
  mutable machs : mach_state list;  (* newest first *)
  clock_fn : unit -> int64;
  wall_start : int64;
}

and mach_state = {
  st : state;
  model : string;
  m_metrics : M.t;  (* the machine's live counters: read, never written *)
  m_probe : P.t;
  scratch : M.t;  (* op_begin snapshot *)
  last_sample : M.t;  (* sampler window baseline *)
  mutable pending : string option;
  mutable since : int;
}

type t = {
  on : bool;
  pbegin : string -> unit;
  pend : string -> unit;
  state : state option;
}

type machine = mach_state

let enabled t = t.on

let nop (_ : string) = ()
let disabled = { on = false; pbegin = nop; pend = nop; state = None }

(* -- phases ------------------------------------------------------------- *)

let phase_begin_impl st name =
  st.phase_stack <-
    { op_name = name; op_start = st.clock; op_depth = List.length st.phase_stack }
    :: st.phase_stack

let phase_end_impl st name =
  match st.phase_stack with
  | [] -> invalid_arg "Obs.phase_end: no phase open"
  | top :: rest ->
      if not (String.equal top.op_name name) then
        invalid_arg
          (Printf.sprintf "Obs.phase_end: %S open, got %S" top.op_name name);
      st.phase_stack <- rest;
      let dur = st.clock - top.op_start in
      (match Hashtbl.find_opt st.phase_rows name with
      | Some a ->
          a.pa_count <- a.pa_count + 1;
          a.pa_cycles <- a.pa_cycles + dur
      | None ->
          Hashtbl.add st.phase_rows name { pa_count = 1; pa_cycles = dur });
      if st.pevent_count < st.max_phase_events then begin
        st.pevents <-
          { pname = name; ts = top.op_start; dur; depth = top.op_depth }
          :: st.pevents;
        st.pevent_count <- st.pevent_count + 1
      end
      else st.pevents_dropped <- st.pevents_dropped + 1

let dummy_sample =
  {
    s_scope = "";
    s_clock = 0;
    s_accesses = 0;
    s_cycles = 0;
    d_accesses = 0;
    d_cycles = 0;
    cache_mr = 0.;
    plb_mr = 0.;
    tlb_mr = 0.;
    pg_mr = 0.;
    fault_rate = 0.;
    g_backlog = 0;
    g_proxies = 0;
    g_skew = 0.;
    occupancy = [||];
  }

let create ?(sample_every = 1000) ?(ring_capacity = 512)
    ?(max_phase_events = 4096) ?(max_flow_events = 65536) ?(track = -1)
    ?(label = "") ?(clock = fun () -> 0L) () =
  if sample_every < 1 then invalid_arg "Obs.create: sample_every >= 1";
  if ring_capacity < 1 then invalid_arg "Obs.create: ring_capacity >= 1";
  if max_phase_events < 0 then invalid_arg "Obs.create: max_phase_events >= 0";
  if max_flow_events < 0 then invalid_arg "Obs.create: max_flow_events >= 0";
  let st =
    {
      sample_every;
      ring = Array.make ring_capacity dummy_sample;
      ring_head = 0;
      ring_len = 0;
      ring_seen = 0;
      cpa = Histogram.create ~buckets:cpa_buckets ~width:cpa_bucket_width;
      clock = 0;
      ops = Hashtbl.create 64;
      phase_rows = Hashtbl.create 16;
      phase_stack = [];
      pevents = [];
      pevent_count = 0;
      pevents_dropped = 0;
      max_phase_events;
      flows_out = [];
      flows_in = [];
      flow_count = 0;
      flows_dropped = 0;
      max_flow_events;
      track;
      label;
      g_backlog = 0;
      g_proxies = 0;
      g_skew = 0.;
      machs = [];
      clock_fn = clock;
      wall_start = clock ();
    }
  in
  {
    on = true;
    pbegin = phase_begin_impl st;
    pend = phase_end_impl st;
    state = Some st;
  }

let phase_begin t name = t.pbegin name
let phase_end t name = t.pend name

let with_phase t name f =
  if not t.on then f ()
  else begin
    t.pbegin name;
    match f () with
    | v ->
        t.pend name;
        v
    | exception e ->
        t.pend name;
        raise e
  end

(* -- ambient ------------------------------------------------------------ *)

let ambient_key = Domain.DLS.new_key (fun () -> disabled)
let ambient () = Domain.DLS.get ambient_key

let with_ambient t f =
  let prev = Domain.DLS.get ambient_key in
  Domain.DLS.set ambient_key t;
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient_key prev) f

(* -- operation spans ---------------------------------------------------- *)

let register_machine t ~model ~metrics ~probe =
  match t.state with
  | None -> invalid_arg "Obs.register_machine: disabled collector"
  | Some st ->
      let mh =
        {
          st;
          model;
          m_metrics = metrics;
          m_probe = probe;
          scratch = M.create ();
          last_sample = M.create ();
          pending = None;
          since = 0;
        }
      in
      st.machs <- mh :: st.machs;
      mh

let op_begin mh name =
  (match mh.pending with
  | Some open_op ->
      invalid_arg
        (Printf.sprintf "Obs.op_begin %S: span %S already open" name open_op)
  | None -> ());
  mh.pending <- Some name;
  M.reset mh.scratch;
  M.add_into mh.scratch mh.m_metrics

let op_end mh name =
  (match mh.pending with
  | None -> invalid_arg (Printf.sprintf "Obs.op_end %S: no span open" name)
  | Some open_op ->
      if not (String.equal open_op name) then
        invalid_arg
          (Printf.sprintf "Obs.op_end: %S open, got %S" open_op name));
  mh.pending <- None;
  let d = M.diff mh.m_metrics mh.scratch in
  let st = mh.st in
  st.clock <- st.clock + d.M.cycles;
  match Hashtbl.find_opt st.ops (mh.model, name) with
  | Some a ->
      a.a_count <- a.a_count + 1;
      M.add_into a.a_delta d
  | None -> Hashtbl.add st.ops (mh.model, name) { a_count = 1; a_delta = d }

let take_sample mh =
  let st = mh.st in
  let w = M.diff mh.m_metrics mh.last_sample in
  M.reset mh.last_sample;
  M.add_into mh.last_sample mh.m_metrics;
  let s =
    {
      s_scope = mh.model;
      s_clock = st.clock;
      s_accesses = mh.m_metrics.M.accesses;
      s_cycles = mh.m_metrics.M.cycles;
      d_accesses = w.M.accesses;
      d_cycles = w.M.cycles;
      cache_mr = M.cache_miss_ratio w;
      plb_mr = M.plb_miss_ratio w;
      tlb_mr = M.tlb_miss_ratio w;
      pg_mr = M.pg_miss_ratio w;
      fault_rate =
        float_of_int (w.M.protection_faults + w.M.page_faults)
        /. float_of_int (max 1 w.M.accesses);
      g_backlog = st.g_backlog;
      g_proxies = st.g_proxies;
      g_skew = st.g_skew;
      occupancy = Array.copy mh.m_probe.P.occupancy;
    }
  in
  st.ring.(st.ring_head) <- s;
  st.ring_head <- (st.ring_head + 1) mod Array.length st.ring;
  if st.ring_len < Array.length st.ring then st.ring_len <- st.ring_len + 1;
  st.ring_seen <- st.ring_seen + 1;
  Histogram.add st.cpa (10 * w.M.cycles / max 1 w.M.accesses)

let tick mh =
  mh.since <- mh.since + 1;
  if mh.since >= mh.st.sample_every then begin
    mh.since <- 0;
    take_sample mh
  end

(* -- flows & gauges ------------------------------------------------------ *)

let flow_out t ~id ~name =
  match t.state with
  | None -> ()
  | Some st ->
      if st.flow_count < st.max_flow_events then begin
        st.flows_out <-
          { fl_id = id; fl_name = name; fl_ts = st.clock } :: st.flows_out;
        st.flow_count <- st.flow_count + 1
      end
      else st.flows_dropped <- st.flows_dropped + 1

let flow_in t ~id ~name =
  match t.state with
  | None -> ()
  | Some st ->
      if st.flow_count < st.max_flow_events then begin
        st.flows_in <-
          { fl_id = id; fl_name = name; fl_ts = st.clock } :: st.flows_in;
        st.flow_count <- st.flow_count + 1
      end
      else st.flows_dropped <- st.flows_dropped + 1

let set_gauges t ~backlog ~proxies ~skew =
  match t.state with
  | None -> ()
  | Some st ->
      st.g_backlog <- backlog;
      st.g_proxies <- proxies;
      st.g_skew <- skew

let peek_samples t =
  match t.state with
  | None -> []
  | Some st ->
      let cap = Array.length st.ring in
      let oldest = (st.ring_head - st.ring_len + cap) mod cap in
      List.init st.ring_len (fun i -> st.ring.((oldest + i) mod cap))

(* -- summaries ----------------------------------------------------------- *)

let summarize t =
  match t.state with
  | None -> invalid_arg "Obs.summarize: disabled collector"
  | Some st ->
      (match st.phase_stack with
      | { op_name; _ } :: _ ->
          invalid_arg ("Obs.summarize: phase still open: " ^ op_name)
      | [] -> ());
      List.iter
        (fun mh ->
          match mh.pending with
          | Some op -> invalid_arg ("Obs.summarize: op span still open: " ^ op)
          | None -> ())
        st.machs;
      let machines =
        let tbl = Hashtbl.create 8 in
        List.iter
          (fun mh ->
            Hashtbl.replace tbl mh.model
              (1 + Option.value ~default:0 (Hashtbl.find_opt tbl mh.model)))
          st.machs;
        List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) tbl [])
      in
      let total_cycles =
        List.fold_left (fun acc mh -> acc + mh.m_metrics.M.cycles) 0 st.machs
      in
      let ops =
        Hashtbl.fold
          (fun (scope, op) a l ->
            { scope; op; count = a.a_count; delta = M.copy a.a_delta } :: l)
          st.ops []
        |> List.sort (fun a b -> compare (a.scope, a.op) (b.scope, b.op))
      in
      let phases =
        Hashtbl.fold
          (fun phase a l ->
            { phase; p_count = a.pa_count; p_cycles = a.pa_cycles } :: l)
          st.phase_rows []
        |> List.sort (fun a b -> compare a.phase b.phase)
      in
      let phase_events =
        List.rev st.pevents
        |> List.stable_sort (fun a b -> compare (a.ts, a.depth) (b.ts, b.depth))
      in
      let cap = Array.length st.ring in
      let oldest = (st.ring_head - st.ring_len + cap) mod cap in
      let samples =
        List.init st.ring_len (fun i -> st.ring.((oldest + i) mod cap))
      in
      {
        sample_every = st.sample_every;
        ring_capacity = cap;
        machines;
        total_cycles;
        clock = st.clock;
        ops;
        phases;
        phase_events;
        phase_events_dropped = st.pevents_dropped;
        flows_out = List.rev st.flows_out;
        flows_in = List.rev st.flows_in;
        flows_dropped = st.flows_dropped;
        samples;
        samples_seen = st.ring_seen;
        cpa_hist =
          Array.init (cpa_buckets + 1) (fun i -> Histogram.bucket st.cpa i);
        wall_ns = Int64.sub (st.clock_fn ()) st.wall_start;
        track = st.track;
        label = st.label;
        tracks = [];
      }

let merge summaries =
  if summaries = [] then invalid_arg "Obs.merge: empty list";
  let ops = Hashtbl.create 64 and phases = Hashtbl.create 16 in
  let machines = Hashtbl.create 8 in
  let cpa = Array.make (cpa_buckets + 1) 0 in
  let pevents = ref []
  and flows_out = ref []
  and flows_in = ref []
  and fdropped = ref 0
  and tracks = ref []
  and samples = ref []
  and offset = ref 0
  and total = ref 0
  and dropped = ref 0
  and seen = ref 0
  and wall = ref 0L
  and sample_every = ref 0
  and ring_capacity = ref 0 in
  List.iter
    (fun (s : summary) ->
      sample_every := max !sample_every s.sample_every;
      ring_capacity := max !ring_capacity s.ring_capacity;
      total := !total + s.total_cycles;
      dropped := !dropped + s.phase_events_dropped;
      seen := !seen + s.samples_seen;
      wall := Int64.add !wall s.wall_ns;
      List.iter
        (fun (m, n) ->
          Hashtbl.replace machines m
            (n + Option.value ~default:0 (Hashtbl.find_opt machines m)))
        s.machines;
      List.iter
        (fun r ->
          match Hashtbl.find_opt ops (r.scope, r.op) with
          | Some a ->
              a.a_count <- a.a_count + r.count;
              M.add_into a.a_delta r.delta
          | None ->
              Hashtbl.add ops (r.scope, r.op)
                { a_count = r.count; a_delta = M.copy r.delta })
        s.ops;
      List.iter
        (fun r ->
          match Hashtbl.find_opt phases r.phase with
          | Some a ->
              a.pa_count <- a.pa_count + r.p_count;
              a.pa_cycles <- a.pa_cycles + r.p_cycles
          | None ->
              Hashtbl.add phases r.phase
                { pa_count = r.p_count; pa_cycles = r.p_cycles })
        s.phases;
      List.iter
        (fun e -> pevents := { e with ts = e.ts + !offset } :: !pevents)
        s.phase_events;
      List.iter
        (fun f -> flows_out := { f with fl_ts = f.fl_ts + !offset } :: !flows_out)
        s.flows_out;
      List.iter
        (fun f -> flows_in := { f with fl_ts = f.fl_ts + !offset } :: !flows_in)
        s.flows_in;
      fdropped := !fdropped + s.flows_dropped;
      tracks := List.rev_append s.tracks !tracks;
      List.iter
        (fun sm -> samples := { sm with s_clock = sm.s_clock + !offset } :: !samples)
        s.samples;
      Array.iteri
        (fun i c -> if i <= cpa_buckets then cpa.(i) <- cpa.(i) + c)
        s.cpa_hist;
      offset := !offset + s.clock)
    summaries;
  {
    sample_every = !sample_every;
    ring_capacity = !ring_capacity;
    machines =
      List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) machines []);
    total_cycles = !total;
    clock = !offset;
    ops =
      Hashtbl.fold
        (fun (scope, op) a l ->
          { scope; op; count = a.a_count; delta = M.copy a.a_delta } :: l)
        ops []
      |> List.sort (fun a b -> compare (a.scope, a.op) (b.scope, b.op));
    phases =
      Hashtbl.fold
        (fun phase a l ->
          { phase; p_count = a.pa_count; p_cycles = a.pa_cycles } :: l)
        phases []
      |> List.sort (fun a b -> compare a.phase b.phase);
    phase_events = List.rev !pevents;
    phase_events_dropped = !dropped;
    flows_out = List.rev !flows_out;
    flows_in = List.rev !flows_in;
    flows_dropped = !fdropped;
    samples = List.rev !samples;
    samples_seen = !seen;
    cpa_hist = cpa;
    wall_ns = !wall;
    track = -1;
    label = "";
    tracks = List.rev !tracks;
  }

(* Parallel-timeline merge: unlike [merge], per-summary clocks are NOT
   rebased end-to-end — each input keeps its own timeline and survives
   verbatim in [tracks], so exporters can lay them out side by side
   (one Chrome process per track). Aggregates (ops, phases, cpa,
   totals) are summed; the merged clock is the max over tracks, i.e.
   the virtual makespan of the parallel run. Inputs are sorted by
   track id, so the result is a pure function of the track set and
   stays byte-identical however the shards were scheduled. *)
let merge_tracks summaries =
  if summaries = [] then invalid_arg "Obs.merge_tracks: empty list";
  List.iter
    (fun (s : summary) ->
      if s.track < 0 then
        invalid_arg "Obs.merge_tracks: untracked summary (create ~track)";
      if s.tracks <> [] then
        invalid_arg "Obs.merge_tracks: input is already a track merge")
    summaries;
  let summaries =
    List.stable_sort (fun (a : summary) b -> compare a.track b.track) summaries
  in
  let rec check_dup = function
    | (a : summary) :: (b :: _ as tl) ->
        if a.track = b.track then
          invalid_arg
            (Printf.sprintf "Obs.merge_tracks: duplicate track id %d" a.track);
        check_dup tl
    | _ -> ()
  in
  check_dup summaries;
  let ops = Hashtbl.create 64 and phases = Hashtbl.create 16 in
  let machines = Hashtbl.create 8 in
  let cpa = Array.make (cpa_buckets + 1) 0 in
  let clock = ref 0
  and total = ref 0
  and pdropped = ref 0
  and fdropped = ref 0
  and seen = ref 0
  and wall = ref 0L
  and sample_every = ref 0
  and ring_capacity = ref 0 in
  List.iter
    (fun (s : summary) ->
      sample_every := max !sample_every s.sample_every;
      ring_capacity := max !ring_capacity s.ring_capacity;
      clock := max !clock s.clock;
      total := !total + s.total_cycles;
      pdropped := !pdropped + s.phase_events_dropped;
      fdropped := !fdropped + s.flows_dropped;
      seen := !seen + s.samples_seen;
      wall := Int64.add !wall s.wall_ns;
      List.iter
        (fun (m, n) ->
          Hashtbl.replace machines m
            (n + Option.value ~default:0 (Hashtbl.find_opt machines m)))
        s.machines;
      List.iter
        (fun r ->
          match Hashtbl.find_opt ops (r.scope, r.op) with
          | Some a ->
              a.a_count <- a.a_count + r.count;
              M.add_into a.a_delta r.delta
          | None ->
              Hashtbl.add ops (r.scope, r.op)
                { a_count = r.count; a_delta = M.copy r.delta })
        s.ops;
      List.iter
        (fun r ->
          match Hashtbl.find_opt phases r.phase with
          | Some a ->
              a.pa_count <- a.pa_count + r.p_count;
              a.pa_cycles <- a.pa_cycles + r.p_cycles
          | None ->
              Hashtbl.add phases r.phase
                { pa_count = r.p_count; pa_cycles = r.p_cycles })
        s.phases;
      Array.iteri
        (fun i c -> if i <= cpa_buckets then cpa.(i) <- cpa.(i) + c)
        s.cpa_hist)
    summaries;
  (* one clock-ordered timeline; the stable sort keeps track order on ties *)
  let samples =
    List.concat_map
      (fun (s : summary) ->
        List.map
          (fun sm ->
            { sm with s_scope = Printf.sprintf "s%d:%s" s.track sm.s_scope })
          s.samples)
      summaries
    |> List.stable_sort (fun a b -> compare a.s_clock b.s_clock)
  in
  {
    sample_every = !sample_every;
    ring_capacity = !ring_capacity;
    machines =
      List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) machines []);
    total_cycles = !total;
    clock = !clock;
    ops =
      Hashtbl.fold
        (fun (scope, op) a l ->
          { scope; op; count = a.a_count; delta = M.copy a.a_delta } :: l)
        ops []
      |> List.sort (fun a b -> compare (a.scope, a.op) (b.scope, b.op));
    phases =
      Hashtbl.fold
        (fun phase a l ->
          { phase; p_count = a.pa_count; p_cycles = a.pa_cycles } :: l)
        phases []
      |> List.sort (fun a b -> compare a.phase b.phase);
    phase_events = [];
    phase_events_dropped = !pdropped;
    flows_out = [];
    flows_in = [];
    flows_dropped = !fdropped;
    samples;
    samples_seen = !seen;
    cpa_hist = cpa;
    wall_ns = !wall;
    track = -1;
    label = "";
    tracks = summaries;
  }

(* -- exporters ----------------------------------------------------------- *)

let render_table (s : summary) =
  let b = Buffer.create 4096 in
  Buffer.add_string b "== cycle attribution ==\n";
  Buffer.add_string b
    (Printf.sprintf "machines: %s\n"
       (String.concat ", "
          (List.map
             (fun (m, n) -> Printf.sprintf "%s x%d" m n)
             s.machines)));
  Buffer.add_string b
    (Printf.sprintf "total cycles: %s   sampled points: %d (ring keeps %d)\n\n"
       (Tablefmt.cell_int s.total_cycles)
       s.samples_seen
       (List.length s.samples));
  let t =
    Tablefmt.create
      [
        ("machine", Tablefmt.Left);
        ("op", Tablefmt.Left);
        ("count", Tablefmt.Right);
        ("cycles", Tablefmt.Right);
        ("share", Tablefmt.Right);
        ("cyc/op", Tablefmt.Right);
        ("kernel", Tablefmt.Right);
        ("faults", Tablefmt.Right);
      ]
  in
  List.iter
    (fun r ->
      let d = r.delta in
      Tablefmt.add_row t
        [
          r.scope;
          r.op;
          Tablefmt.cell_int r.count;
          Tablefmt.cell_int d.M.cycles;
          Tablefmt.cell_pct
            (float_of_int d.M.cycles)
            (float_of_int (max 1 s.total_cycles));
          Tablefmt.cell_float ~dec:1
            (float_of_int d.M.cycles /. float_of_int (max 1 r.count));
          Tablefmt.cell_int d.M.kernel_entries;
          Tablefmt.cell_int (d.M.protection_faults + d.M.page_faults);
        ])
    s.ops;
  Buffer.add_string b (Tablefmt.render t);
  if s.phases <> [] then begin
    Buffer.add_string b "\n== phases ==\n";
    let t =
      Tablefmt.create
        [
          ("phase", Tablefmt.Left);
          ("count", Tablefmt.Right);
          ("cycles", Tablefmt.Right);
        ]
    in
    List.iter
      (fun r ->
        Tablefmt.add_row t
          [ r.phase; Tablefmt.cell_int r.p_count; Tablefmt.cell_int r.p_cycles ])
      s.phases;
    Buffer.add_string b (Tablefmt.render t)
  end;
  if s.samples <> [] then begin
    Buffer.add_string b "\n== sampler (last points) ==\n";
    let t =
      Tablefmt.create
        [
          ("machine", Tablefmt.Left);
          ("clock", Tablefmt.Right);
          ("accesses", Tablefmt.Right);
          ("cyc/acc", Tablefmt.Right);
          ("cache mr", Tablefmt.Right);
          ("plb mr", Tablefmt.Right);
          ("tlb mr", Tablefmt.Right);
          ("pg mr", Tablefmt.Right);
          ("plb occ", Tablefmt.Right);
          ("tlb occ", Tablefmt.Right);
        ]
    in
    let last n l =
      let len = List.length l in
      if len <= n then l else List.filteri (fun i _ -> i >= len - n) l
    in
    List.iter
      (fun sm ->
        let occ i = if Array.length sm.occupancy > i then sm.occupancy.(i) else 0 in
        Tablefmt.add_row t
          [
            sm.s_scope;
            Tablefmt.cell_int sm.s_clock;
            Tablefmt.cell_int sm.s_accesses;
            Tablefmt.cell_float ~dec:1
              (float_of_int sm.d_cycles /. float_of_int (max 1 sm.d_accesses));
            Tablefmt.cell_float ~dec:4 sm.cache_mr;
            Tablefmt.cell_float ~dec:4 sm.plb_mr;
            Tablefmt.cell_float ~dec:4 sm.tlb_mr;
            Tablefmt.cell_float ~dec:4 sm.pg_mr;
            Tablefmt.cell_int (occ (P.index P.Plb));
            Tablefmt.cell_int (occ (P.index P.Tlb));
          ])
      (last 10 s.samples);
    Buffer.add_string b (Tablefmt.render t)
  end;
  Buffer.contents b

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let jstr s = "\"" ^ json_escape s ^ "\""
let jfloat f = Printf.sprintf "%.6f" f

let jarray ~nl items =
  if items = [] then "[]"
  else if nl then "[\n    " ^ String.concat ",\n    " items ^ "\n  ]"
  else "[" ^ String.concat "," items ^ "]"

let json_of_op r =
  let d = r.delta in
  let events =
    M.fields d
    |> List.filter (fun (_, v) -> v <> 0)
    |> List.map (fun (k, v) -> Printf.sprintf "%s:%d" (jstr k) v)
  in
  Printf.sprintf "{%s:%s,%s:%s,\"count\":%d,\"cycles\":%d,\"events\":{%s}}"
    (jstr "scope") (jstr r.scope) (jstr "op") (jstr r.op) r.count d.M.cycles
    (String.concat "," events)

let json_of_sample sm =
  let occ =
    List.init P.n_structures (fun i ->
        let v = if Array.length sm.occupancy > i then sm.occupancy.(i) else 0 in
        let name =
          match i with
          | 0 -> "plb"
          | 1 -> "tlb"
          | 2 -> "pg_cache"
          | 3 -> "l1_cache"
          | _ -> "l2_cache"
        in
        Printf.sprintf "%s:%d" (jstr name) v)
  in
  Printf.sprintf
    "{\"scope\":%s,\"clock\":%d,\"accesses\":%d,\"cycles\":%d,\"d_accesses\":%d,\"d_cycles\":%d,\"cache_mr\":%s,\"plb_mr\":%s,\"tlb_mr\":%s,\"pg_mr\":%s,\"fault_rate\":%s,\"backlog\":%d,\"proxies\":%d,\"skew\":%s,\"occupancy\":{%s}}"
    (jstr sm.s_scope) sm.s_clock sm.s_accesses sm.s_cycles sm.d_accesses
    sm.d_cycles (jfloat sm.cache_mr) (jfloat sm.plb_mr) (jfloat sm.tlb_mr)
    (jfloat sm.pg_mr) (jfloat sm.fault_rate) sm.g_backlog sm.g_proxies
    (jfloat sm.g_skew) (String.concat "," occ)

let json_of_flow (f : flow_event) =
  Printf.sprintf "{\"id\":%d,\"name\":%s,\"ts\":%d}" f.fl_id (jstr f.fl_name)
    f.fl_ts

(* [top] controls the one-per-document bits: the schema tag stays
   top-level only (downstream validators count its occurrences), and
   nested track sections carry [track]/[label]/flow lists instead. *)
let rec summary_fields ~nl ~top (s : summary) =
  let field k v = Printf.sprintf "%s:%s" (jstr k) v in
  let schema_fields =
    if top then [ field "schema" (jstr "sasos-obs/1") ] else []
  in
  let track_fields =
    (if s.track >= 0 then [ field "track" (string_of_int s.track) ] else [])
    @ if s.label <> "" then [ field "label" (jstr s.label) ] else []
  in
  let flow_fields =
    if s.flows_out = [] && s.flows_in = [] && s.flows_dropped = 0 then []
    else
      [
        field "flows_out" (jarray ~nl (List.map json_of_flow s.flows_out));
        field "flows_in" (jarray ~nl (List.map json_of_flow s.flows_in));
        field "flows_dropped" (string_of_int s.flows_dropped);
      ]
  in
  let tracks_fields =
    if s.tracks = [] then []
    else
      [
        field "tracks"
          (jarray ~nl
             (List.map
                (fun tr ->
                  "{"
                  ^ String.concat ","
                      (summary_fields ~nl:false ~top:false tr)
                  ^ "}")
                s.tracks));
      ]
  in
  schema_fields @ track_fields
  @ [
      field "sample_every" (string_of_int s.sample_every);
      field "ring_capacity" (string_of_int s.ring_capacity);
      field "machines"
        (jarray ~nl
           (List.map
              (fun (m, n) ->
                Printf.sprintf "{\"model\":%s,\"instances\":%d}" (jstr m) n)
              s.machines));
      field "total_cycles" (string_of_int s.total_cycles);
      field "clock" (string_of_int s.clock);
      field "wall_ns" (Int64.to_string s.wall_ns);
      field "ops" (jarray ~nl (List.map json_of_op s.ops));
      field "phases"
        (jarray ~nl
           (List.map
              (fun r ->
                Printf.sprintf "{\"phase\":%s,\"count\":%d,\"cycles\":%d}"
                  (jstr r.phase) r.p_count r.p_cycles)
              s.phases));
      field "phase_events"
        (jarray ~nl
           (List.map
              (fun e ->
                Printf.sprintf
                  "{\"phase\":%s,\"ts\":%d,\"dur\":%d,\"depth\":%d}"
                  (jstr e.pname) e.ts e.dur e.depth)
              s.phase_events));
      field "phase_events_dropped" (string_of_int s.phase_events_dropped);
      field "samples_seen" (string_of_int s.samples_seen);
      field "samples" (jarray ~nl (List.map json_of_sample s.samples));
      field "cpa_bucket_width" (string_of_int cpa_bucket_width);
      field "cpa_hist"
        ("["
        ^ String.concat ","
            (Array.to_list (Array.map string_of_int s.cpa_hist))
        ^ "]");
    ]
  @ flow_fields @ tracks_fields

let to_json ?(indent = false) (s : summary) =
  let nl = indent in
  let sep = if nl then ",\n  " else "," in
  let b = Buffer.create 8192 in
  Buffer.add_string b (if nl then "{\n  " else "{");
  Buffer.add_string b (String.concat sep (summary_fields ~nl ~top:true s));
  Buffer.add_string b (if nl then "\n}" else "}");
  Buffer.contents b

(* One Chrome process per summary. For an untracked (leaf) summary the
   caller passes pid 1 / "sasos" and the output matches the historical
   single-process layout byte for byte; a tracked summary becomes its
   own process (pid = shard id, sorted by id) and additionally carries
   flow begin/end events and a per-shard gauges counter. Flow events sit
   on tid 0 at a ts inside the round's phase slice, so Perfetto binds
   the arrow to that slice. *)
let chrome_emit_summary ~pid ~pname emit (s : summary) =
  let scopes = List.map fst s.machines in
  let tid_of scope =
    let rec go i = function
      | [] -> 9 (* unknown scope: park on a spare track *)
      | x :: _ when String.equal x scope -> 10 + i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 scopes
  in
  emit
    (Printf.sprintf
       "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":%s}}"
       pid (jstr pname));
  if s.track >= 0 then
    emit
      (Printf.sprintf
         "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"process_sort_index\",\"args\":{\"sort_index\":%d}}"
         pid s.track);
  emit
    (Printf.sprintf
       "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"phases\"}}"
       pid);
  List.iter
    (fun scope ->
      emit
        (Printf.sprintf
           "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%s}}"
           pid (tid_of scope) (jstr scope)))
    scopes;
  List.iter
    (fun e ->
      emit
        (Printf.sprintf
           "{\"ph\":\"X\",\"pid\":%d,\"tid\":0,\"cat\":\"phase\",\"name\":%s,\"ts\":%d,\"dur\":%d,\"args\":{\"depth\":%d}}"
           pid (jstr e.pname) e.ts e.dur e.depth))
    s.phase_events;
  List.iter
    (fun (f : flow_event) ->
      emit
        (Printf.sprintf
           "{\"ph\":\"s\",\"pid\":%d,\"tid\":0,\"cat\":\"msg\",\"name\":%s,\"id\":%d,\"ts\":%d}"
           pid (jstr f.fl_name) f.fl_id f.fl_ts))
    s.flows_out;
  List.iter
    (fun (f : flow_event) ->
      emit
        (Printf.sprintf
           "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":%d,\"tid\":0,\"cat\":\"msg\",\"name\":%s,\"id\":%d,\"ts\":%d}"
           pid (jstr f.fl_name) f.fl_id f.fl_ts))
    s.flows_in;
  (* Aggregate op rows laid end-to-end per machine track: the "op"
     category durations sum exactly to total_cycles. *)
  List.iter
    (fun scope ->
      let cursor = ref 0 in
      List.iter
        (fun r ->
          if String.equal r.scope scope then begin
            emit
              (Printf.sprintf
                 "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"cat\":\"op\",\"name\":%s,\"ts\":%d,\"dur\":%d,\"args\":{\"count\":%d}}"
                 pid (tid_of scope) (jstr r.op) !cursor r.delta.M.cycles
                 r.count);
            cursor := !cursor + r.delta.M.cycles
          end)
        s.ops)
    scopes;
  List.iter
    (fun sm ->
      emit
        (Printf.sprintf
           "{\"ph\":\"C\",\"pid\":%d,\"tid\":0,\"name\":%s,\"ts\":%d,\"args\":{\"cache\":%s,\"plb\":%s,\"tlb\":%s,\"pg\":%s}}"
           pid
           (jstr ("miss_ratios:" ^ sm.s_scope))
           sm.s_clock (jfloat sm.cache_mr) (jfloat sm.plb_mr)
           (jfloat sm.tlb_mr) (jfloat sm.pg_mr));
      let occ i = if Array.length sm.occupancy > i then sm.occupancy.(i) else 0 in
      emit
        (Printf.sprintf
           "{\"ph\":\"C\",\"pid\":%d,\"tid\":0,\"name\":%s,\"ts\":%d,\"args\":{\"plb\":%d,\"tlb\":%d,\"pg_cache\":%d,\"l1_cache\":%d,\"l2_cache\":%d}}"
           pid
           (jstr ("occupancy:" ^ sm.s_scope))
           sm.s_clock
           (occ (P.index P.Plb))
           (occ (P.index P.Tlb))
           (occ (P.index P.Pg_cache))
           (occ (P.index P.L1_cache))
           (occ (P.index P.L2_cache)));
      if s.track >= 0 then
        emit
          (Printf.sprintf
             "{\"ph\":\"C\",\"pid\":%d,\"tid\":0,\"name\":\"gauges\",\"ts\":%d,\"args\":{\"fault_rate\":%s,\"backlog\":%d,\"proxies\":%d,\"skew\":%s}}"
             pid sm.s_clock (jfloat sm.fault_rate) sm.g_backlog sm.g_proxies
             (jfloat sm.g_skew)))
    s.samples;
  ()

let to_chrome (s : summary) =
  let b = Buffer.create 8192 in
  let events = ref [] in
  let emit e = events := e :: !events in
  (match s.tracks with
  | [] ->
      let pid = if s.track >= 0 then s.track else 1 in
      let pname =
        if s.label <> "" then s.label
        else if s.track >= 0 then Printf.sprintf "track %d" s.track
        else "sasos"
      in
      chrome_emit_summary ~pid ~pname emit s
  | tracks ->
      List.iter
        (fun (tr : summary) ->
          let pname =
            if tr.label <> "" then tr.label
            else Printf.sprintf "track %d" tr.track
          in
          chrome_emit_summary ~pid:tr.track ~pname emit tr)
        tracks);
  Buffer.add_string b "{\"traceEvents\":[\n";
  Buffer.add_string b (String.concat ",\n" (List.rev !events));
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
