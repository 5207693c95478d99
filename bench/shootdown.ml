(* Shootdown-protocol benchmark (ISSUE 10 acceptance rig).

   A GC-class revocation storm on the PLB machine lifted to N cores:
   every round re-attaches the heap segment read-write, the mutator
   touches the heap, then protect_segment flips it read-only — exactly
   one revocation hazard per round. Under eager purge each hazard costs
   a synchronous shootdown round ((N-1) IPIs + ack barrier); batched
   purge amortizes rounds by the IPI budget, so its IPI bill must be a
   strict fraction of eager's on an identical storm. Lazy is reported
   for contrast (zero IPIs, stale traps instead).

   Gates, in order:
     - ipis(batched) < ipis(eager) at N cores is a hard failure when
       violated (exit 1), whatever --min-ratio says;
     - --min-ratio R additionally requires ipis(eager) >= R *
       ipis(batched) (default 0 = report only; CI passes 2);
     - the allocation guardrail always gates: the warmed pure-access
       loop at N cores (obs off) must stay under 0.01
       minor-heap words per access — the scheduler draw, the migrate
       check and the staleness overlay all live on that path.

   Also times the pure access phase at 1 core vs N cores (the multicore
   overhead is the point: same thread, the scheduler draw and migration
   plus N private structures to warm) and emits sasos-bench/2 rows
   discriminated by "cores" and "policy" for the BENCH_*.json trend
   watchdog.

     shootdown [--cores N] [--rounds N] [--touches N] [--iters N]
               [--json FILE] [--rev REV] [--min-ratio R] *)

open Sasos
module M = Smp.Make (Machines.Plb_machine)

let usage =
  "usage: shootdown [--cores N] [--rounds N] [--touches N] [--iters N]\n\
  \                 [--json FILE] [--rev REV] [--min-ratio R]"

let heap_pages = 8

(* one machine, one mutator domain, one heap segment, warmed *)
let make_rig ~cores ~purge ?ipi_budget () =
  let t = M.create_with ~cores ~purge ?ipi_budget Config.default in
  let d = M.new_domain t in
  let seg = M.new_segment t ~pages:heap_pages ~name:"heap" () in
  M.attach t d seg Rights.rw;
  M.switch_domain t d;
  for i = 0 to (heap_pages * 64) - 1 do
    ignore (M.access t Access.Write (Segment.page_va seg (i mod heap_pages)))
  done;
  (t, d, seg)

(* GC-class storm: collection flips the heap read-only (revocation),
   the mutator faults/touches, the next cycle re-enables writes *)
let storm (t, d, seg) ~rounds ~touches =
  for _ = 1 to rounds do
    M.attach t d seg Rights.rw;
    for i = 0 to touches - 1 do
      ignore (M.access t Access.Write (Segment.page_va seg (i mod heap_pages)))
    done;
    M.protect_segment t d seg Rights.r
  done;
  M.metrics t

let pure_access_loop (t, _, seg) n =
  for i = 0 to n - 1 do
    ignore (M.access t Access.Read (Segment.page_va seg (i land 7)))
  done

(* Gc.minor_words (not quick_stat): on OCaml 5.1 quick_stat's
   minor_words only advances at minor collections (see bench/scale.ml) *)
let alloc_words_per_access rig n =
  let w0 = Gc.minor_words () in
  pure_access_loop rig n;
  let w1 = Gc.minor_words () in
  Float.max 0.0 (w1 -. w0 -. 2.0 (* boxed float from reading w0 *))
  /. float_of_int n

let rate_of rig n =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    pure_access_loop rig n;
    let t1 = Unix.gettimeofday () in
    if t1 -. t0 < !best then best := t1 -. t0
  done;
  float_of_int n /. !best

let () =
  let cores = ref 8
  and rounds = ref 400
  and touches = ref 200
  and iters = ref 200_000
  and json = ref ""
  and rev = ref "unknown"
  and min_ratio = ref 0.0 in
  let rec parse = function
    | [] -> ()
    | "--cores" :: n :: rest -> cores := int_of_string n; parse rest
    | "--rounds" :: n :: rest -> rounds := int_of_string n; parse rest
    | "--touches" :: n :: rest -> touches := int_of_string n; parse rest
    | "--iters" :: n :: rest -> iters := int_of_string n; parse rest
    | "--json" :: path :: rest -> json := path; parse rest
    | "--rev" :: r :: rest -> rev := r; parse rest
    | "--min-ratio" :: x :: rest -> min_ratio := float_of_string x; parse rest
    | arg :: _ ->
        prerr_endline ("shootdown: unknown argument " ^ arg);
        prerr_endline usage;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  Printf.printf
    "== shootdown: GC-class revocation storm, %d rounds x %d touches, plb \
     ==\n%!"
    !rounds !touches;
  (* IPI bill per policy at N cores on the identical storm *)
  let bill purge =
    let m = storm (make_rig ~cores:!cores ~purge ()) ~rounds:!rounds
        ~touches:!touches
    in
    (m.Metrics.shootdowns, m.Metrics.ipis, m.Metrics.stale_hits)
  in
  let e_rounds, e_ipis, _ = bill Smp.Eager in
  let b_rounds, b_ipis, _ = bill Smp.Batched in
  let l_rounds, l_ipis, l_stale = bill Smp.Lazy in
  Printf.printf
    "  %d cores  eager:   %6d shootdown rounds  %8d ipis\n\
    \  %d cores  batched: %6d shootdown rounds  %8d ipis  (budget %d)\n\
    \  %d cores  lazy:    %6d shootdown rounds  %8d ipis  %6d stale traps\n"
    !cores e_rounds e_ipis !cores b_rounds b_ipis (Smp.ipi_budget ()) !cores
    l_rounds l_ipis l_stale;
  let ratio = float_of_int e_ipis /. float_of_int (max 1 b_ipis) in
  Printf.printf "  eager/batched ipi ratio %.2fx\n" ratio;
  (* pure-access throughput, 1 core vs N: multicore overhead *)
  let rig1 = make_rig ~cores:1 ~purge:Smp.Eager () in
  let rign = make_rig ~cores:!cores ~purge:Smp.Eager () in
  let rate1 = rate_of rig1 !iters in
  let raten = rate_of rign !iters in
  let alloc1 = alloc_words_per_access rig1 !iters in
  let allocn = alloc_words_per_access rign !iters in
  Printf.printf
    "  pure access: %12.0f accesses/sec at 1 core  (%.5f words/access)\n\
    \               %12.0f accesses/sec at %d cores (%.5f words/access)\n"
    rate1 alloc1 raten !cores allocn;
  if !json <> "" then begin
    let oc = open_out !json in
    Printf.fprintf oc
      "{\n\
      \  \"schema\": \"sasos-bench/2\",\n\
      \  \"benchmark\": \"shootdown\",\n\
      \  \"cores\": %d,\n\
      \  \"rounds\": %d,\n\
      \  \"touches\": %d,\n\
      \  \"git_rev\": %S,\n\
      \  \"rows\": [\n\
      \    { \"bench\": \"shootdown\", \"cores\": 1, \"policy\": \"eager\", \
       \"accesses_per_sec\": %.0f, \"alloc_words_per_access\": %.5f },\n\
      \    { \"bench\": \"shootdown\", \"cores\": %d, \"policy\": \
       \"eager\", \"accesses_per_sec\": %.0f, \"alloc_words_per_access\": \
       %.5f, \"ipis\": %d },\n\
      \    { \"bench\": \"shootdown\", \"cores\": %d, \"policy\": \
       \"batched\", \"ipis\": %d },\n\
      \    { \"bench\": \"shootdown\", \"cores\": %d, \"policy\": \
       \"lazy\", \"ipis\": %d, \"stale_hits\": %d }\n\
      \  ],\n\
      \  \"eager_batched_ipi_ratio\": %.3f\n\
       }\n"
      !cores !rounds !touches !rev rate1 alloc1 !cores raten allocn e_ipis
      !cores b_ipis !cores l_ipis l_stale ratio;
    close_out oc;
    Printf.printf "wrote %s\n" !json
  end;
  (* gates: batched must strictly beat eager; allocation always gates *)
  if b_ipis >= e_ipis then begin
    Printf.printf "FAIL: batched ipis %d not below eager ipis %d\n" b_ipis
      e_ipis;
    exit 1
  end;
  if ratio < !min_ratio then begin
    Printf.printf "FAIL: eager/batched ipi ratio %.2fx below required %.2fx\n"
      ratio !min_ratio;
    exit 1
  end;
  List.iter
    (fun (label, a) ->
      if a > 0.01 then begin
        Printf.printf
          "FAIL: %s access path allocates (%.5f > 0.01 minor words/access)\n"
          label a;
        exit 1
      end)
    [ ("1-core", alloc1); (Printf.sprintf "%d-core" !cores, allocn) ]
