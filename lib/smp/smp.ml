open Sasos_addr
open Sasos_hw
open Sasos_os
module Obs = Sasos_obs.Obs
module Flat_tab = Sasos_util.Flat_tab
module Split = Sasos_util.Prng.Split

(* Multicore layer: one OS, N cores (see smp.mli). The modelling
   contract, in one place:

   - Each machine value is one core: its own TLB, PLB or page-group
     cache, data caches and current domain over the OS half it shares
     with the others ([MACHINE.add_core]). Every OS operation runs
     once, on the core the scheduler drew, so kernel entries, table
     writes and disk traffic are counted once however many cores there
     are.
   - A revocation (some (domain, page) lost rights) is followed by the
     shootdown handler, [MACHINE.purge], on every other core: it drops
     that core's entries for the revoked range and bills its sweep (the
     page-group and protection-key models re-encode every core's entries
     as the OS changes them, so theirs has nothing left to drop). This
     happens under every policy, so [hw_over_allows] stays false on every
     core and the differential probe set is policy-independent.
   - Staleness under lazy/batched purge is an outcome overlay, not
     hardware state: per-core pending tables record what the core's
     private structures would still hold had the purge not run. A
     pending entry only matters on a core that had actually cached the
     mapping ([touched]); a stale hit serves the pre-revocation rights
     snapshot — never more — and under lazy raises a stale trap that
     validates the entry. The cost of the coherent access path is charged
     even when the overlay substitutes a stale outcome; the overlay adds
     outcome semantics and trap charges only.
   - Page evictions and unmaps reach every core through the shared OS
     ([Os_core.unmap]); they bill no IPI round. *)

type purge = Eager | Lazy | Batched

let purge_to_string = function
  | Eager -> "eager"
  | Lazy -> "lazy"
  | Batched -> "batched"

let all_purges = [ Eager; Lazy; Batched ]

let purge_names_doc =
  String.concat ", " (List.map purge_to_string all_purges)

let purge_of_string s =
  match String.lowercase_ascii s with
  | "eager" -> Ok Eager
  | "lazy" -> Ok Lazy
  | "batched" -> Ok Batched
  | _ -> Error (Printf.sprintf "unknown purge policy %S (try %s)" s purge_names_doc)

(* -- process-global defaults (CLI-set before workers spawn) -------------- *)

let default_cores = Atomic.make 1

let set_cores n =
  if n < 1 || n > 64 then invalid_arg "Smp.set_cores: want 1..64";
  Atomic.set default_cores n

let cores () = Atomic.get default_cores

let purge_to_int = function Eager -> 0 | Lazy -> 1 | Batched -> 2
let purge_of_int = function 0 -> Eager | 1 -> Lazy | _ -> Batched
let default_purge = Atomic.make 0
let set_purge p = Atomic.set default_purge (purge_to_int p)
let purge () = purge_of_int (Atomic.get default_purge)

let default_ipi_budget = Atomic.make 8

let set_ipi_budget n =
  if n < 1 then invalid_arg "Smp.set_ipi_budget: want >= 1";
  Atomic.set default_ipi_budget n

let ipi_budget () = Atomic.get default_ipi_budget

(* -1 = use the config's cost model *)
let ipi_cost_override = Atomic.make (-1)

let set_ipi_cost k =
  if k < 0 then invalid_arg "Smp.set_ipi_cost: negative cost";
  Atomic.set ipi_cost_override k

(* -- the interleaving schedule ------------------------------------------- *)

(* Splitmix over a bare int (Prng.Split), seeded from the config seed so
   a run is reproducible from (seed, cores). The oracle mirror consumes
   the identical stream through these two entry points. *)
let schedule_state ~seed = Split.init (seed lxor 0x534d50 (* "SMP" *))

let schedule_next st ~cores =
  let st = Split.next st in
  (st, Split.draw st ~bound:cores)

(* FNV-style fold of (step, core, op tag); byte-identical schedules iff
   equal (up to hash collisions, which the determinism property treats
   as equality anyway). *)
let hash_mix h v = ((h lxor v) * 0x01000193) land max_int

(* -- introspection handles ----------------------------------------------- *)

type handle = {
  h_cores : int;
  h_schedule_hash : unit -> int;
  h_steps : unit -> int;
  h_pending_total : unit -> int;
  h_summaries : unit -> Obs.summary list;
}

let last_handle : handle option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let set_last h = Domain.DLS.get last_handle := Some h
let last () = !(Domain.DLS.get last_handle)

(* -- the functor --------------------------------------------------------- *)

module Make (S : System_intf.MACHINE) = struct
  type t = {
    cores_hw : S.t array;  (* core 0 is the machine [S.create] built *)
    os : Os_core.t;  (* the one OS under every core *)
    cores : int;
    purge : purge;
    ipi_budget : int;
    c_ipi_send : int;
    c_ipi_deliver : int;
    c_ipi_ack : int;
    c_stale_trap : int;
    mutable thread_current : Pd.t;
    mutable rng : int;  (* scheduler state *)
    mutable hash : int;
    mutable step : int;
    mutable queue : int;  (* batched: revocation rounds awaiting flush *)
    mutable flow_id : int;
    pending : Flat_tab.t array;  (* per core: (pd, vpn) -> old rights *)
    touched : Flat_tab.t array;  (* per core: (pd, vpn) -> 1 *)
    obs_on : bool;
    obs : Obs.t array;  (* per-core collectors (track = core id) *)
    handles : Obs.machine array;
  }

  (* Transparent naming: harness failure reports and report tables keep
     the wrapped machine's identity. *)
  let name = S.name
  let model = S.model

  let create_with ~cores:nc ~purge ?ipi_budget:bud (config : Config.t) =
    if nc < 1 || nc > 64 then invalid_arg "Smp.create_with: want 1..64 cores";
    let bud =
      match bud with Some b -> b | None -> Atomic.get default_ipi_budget
    in
    if bud < 1 then invalid_arg "Smp.create_with: ipi_budget must be >= 1";
    let core0 = S.create config in
    let os = S.os core0 in
    let probes =
      Array.init nc (fun c -> if c = 0 then os.Os_core.probe else Probe.create ())
    in
    let cores_hw =
      Array.init nc (fun c ->
          if c = 0 then core0 else S.add_core core0 ~probe:probes.(c))
    in
    let cost = config.Config.cost in
    let deliver =
      let o = Atomic.get ipi_cost_override in
      if o >= 0 then o else cost.Cost_model.ipi_deliver
    in
    let obs_on = Obs.enabled (Obs.ambient ()) in
    let obs =
      if obs_on then
        Array.init nc (fun c ->
            Obs.create ~track:c ~label:(Printf.sprintf "core %d" c) ())
      else [||]
    in
    let handles =
      if obs_on then
        Array.init nc (fun c ->
            Obs.register_machine obs.(c) ~model:S.name ~metrics:os.Os_core.metrics
              ~probe:probes.(c))
      else [||]
    in
    let t =
      {
        cores_hw;
        os;
        cores = nc;
        purge;
        ipi_budget = bud;
        c_ipi_send = cost.Cost_model.ipi_send;
        c_ipi_deliver = deliver;
        c_ipi_ack = cost.Cost_model.ipi_ack;
        c_stale_trap = cost.Cost_model.stale_trap;
        thread_current = Pd.kernel;
        rng = schedule_state ~seed:config.Config.seed;
        hash = 0;
        step = 0;
        queue = 0;
        flow_id = 0;
        pending = Array.init nc (fun _ -> Flat_tab.create ~size_hint:64 ());
        touched = Array.init nc (fun _ -> Flat_tab.create ~size_hint:64 ());
        obs_on;
        obs;
        handles;
      }
    in
    set_last
      {
        h_cores = nc;
        h_schedule_hash = (fun () -> t.hash);
        h_steps = (fun () -> t.step);
        h_pending_total =
          (fun () ->
            Array.fold_left (fun a p -> a + Flat_tab.length p) 0 t.pending);
        h_summaries =
          (fun () ->
            (* Every core registered the one shared metrics record, so
               each collector's machine total is the whole run's. A
               core's own total is what its spans charged: its clock. *)
            if t.obs_on then
              Array.to_list
                (Array.map
                   (fun o ->
                     let s = Obs.summarize o in
                     { s with Obs.total_cycles = s.Obs.clock })
                   t.obs)
            else []);
      };
    t

  let create config =
    create_with
      ~cores:(Atomic.get default_cores)
      ~purge:(purge_of_int (Atomic.get default_purge))
      config

  (* One scheduler draw per SYSTEM operation; introspection draws
     nothing (the oracle mirror counts on it). Open-coded rather than
     through [schedule_next] so the access path allocates no tuple. *)
  let sched t tag =
    let st = Split.next t.rng in
    t.rng <- st;
    let c = Split.draw st ~bound:t.cores in
    t.hash <- hash_mix (hash_mix (hash_mix t.hash t.step) c) tag;
    t.step <- t.step + 1;
    c

  let[@inline] spanned t c op f =
    if t.obs_on then begin
      Obs.op_begin t.handles.(c) op;
      match f () with
      | v ->
          Obs.op_end t.handles.(c) op;
          v
      | exception e ->
          Obs.op_end t.handles.(c) op;
          raise e
    end
    else f ()

  (* The single logical thread migrates to the scheduled core: a real
     domain switch on that core, charged into the shared record. *)
  let migrate t c =
    let core = t.cores_hw.(c) in
    if not (Pd.equal (S.current_domain core) t.thread_current) then
      S.switch_domain core t.thread_current

  (* The IPI handlers of a revocation: every core but the initiator
     drops its entries for the range. *)
  let purge_others t c pd ~lo ~hi =
    for r = 0 to t.cores - 1 do
      if r <> c then S.purge t.cores_hw.(r) pd ~lo ~hi
    done

  (* One synchronous shootdown round from core [c]: initiation,
     per-target delivery, ack barrier. The round's handlers purge every
     core fully, so all pending staleness (and the batched queue)
     drains. *)
  let round t c =
    if t.cores > 1 then begin
      let m = t.os.Os_core.metrics in
      m.Metrics.shootdowns <- m.Metrics.shootdowns + 1;
      m.Metrics.ipis <- m.Metrics.ipis + (t.cores - 1);
      m.Metrics.cycles <-
        m.Metrics.cycles + t.c_ipi_send
        + ((t.cores - 1) * t.c_ipi_deliver)
        + t.c_ipi_ack;
      for r = 0 to t.cores - 1 do
        Flat_tab.clear t.pending.(r)
      done;
      t.queue <- 0;
      if t.obs_on then begin
        t.flow_id <- t.flow_id + 1;
        Obs.flow_out t.obs.(c) ~id:t.flow_id ~name:"shootdown";
        for r = 0 to t.cores - 1 do
          if r <> c then Obs.flow_in t.obs.(r) ~id:t.flow_id ~name:"shootdown"
        done
      end
    end

  (* A revocation happened (some (domain, page) lost rights): the purge
     policy decides what the remote cores pay, and when. *)
  let revoked t c =
    match t.purge with
    | Eager -> round t c
    | Lazy -> ()
    | Batched ->
        t.queue <- t.queue + 1;
        if t.queue >= t.ipi_budget then round t c

  (* Oldest-wins: the first revocation's snapshot is what the stale
     entry still grants, later revocations only narrow truth further. *)
  let add_pending_except t c d vpn old_i =
    for r = 0 to t.cores - 1 do
      if r <> c then begin
        let p = t.pending.(r) in
        if Flat_tab.find p ~k1:d ~k2:vpn < 0 then
          Flat_tab.replace p ~k1:d ~k2:vpn ~v:old_i
      end
    done

  (* Universal hazard classification: a pair is revoked iff its rights
     before the mutation are not a subset of its rights after. *)
  let seg_revocations t c pd seg apply =
    let n = seg.Segment.pages in
    let olds =
      Array.init n (fun i ->
          Rights.to_int (Os_core.rights t.os pd (Segment.page_va seg i)))
    in
    apply t.cores_hw.(c);
    let d = Pd.to_int pd in
    let base_vpn = Segment.first_vpn seg in
    let hazard = ref false in
    for i = 0 to n - 1 do
      let nw = Os_core.rights t.os pd (Segment.page_va seg i) in
      if not (Rights.subset (Rights.of_int olds.(i)) nw) then begin
        hazard := true;
        if t.purge <> Eager then add_pending_except t c d (base_vpn + i) olds.(i)
      end
    done;
    if !hazard then begin
      purge_others t c (Some pd) ~lo:seg.Segment.base ~hi:(Segment.limit seg);
      revoked t c
    end

  (* The virtual range of the protection unit containing [va]. *)
  let unit_range t va =
    let shift = t.os.Os_core.geom.Geometry.prot_shift in
    let lo = va land lnot ((1 lsl shift) - 1) in
    (lo, lo + (1 lsl shift))

  (* -- SYSTEM ------------------------------------------------------------ *)

  let os t = t.os
  let metrics t = t.os.Os_core.metrics
  let current_domain t = t.thread_current

  let resident_prot_entries_for t va =
    Array.fold_left
      (fun acc core -> acc + S.resident_prot_entries_for core va)
      0 t.cores_hw

  let hw_over_allows t probes =
    Array.exists (fun core -> S.hw_over_allows core probes) t.cores_hw

  let new_domain t =
    let c = sched t 1 in
    spanned t c "new_domain" @@ fun () -> S.new_domain t.cores_hw.(c)

  let switch_domain t pd =
    let c = sched t 2 in
    spanned t c "switch_domain" @@ fun () ->
    t.thread_current <- pd;
    S.switch_domain t.cores_hw.(c) pd

  let destroy_domain t pd =
    if Pd.equal pd t.thread_current then
      invalid_arg "Smp.destroy_domain: domain is running";
    let c = sched t 3 in
    spanned t c "destroy_domain" @@ fun () ->
    migrate t c;
    (* a core whose hardware-current is the victim reschedules first
       (the thread last ran there before migrating away) *)
    Array.iter
      (fun core ->
        if Pd.equal (S.current_domain core) pd then
          S.switch_domain core t.thread_current)
      t.cores_hw;
    S.destroy_domain t.cores_hw.(c) pd;
    purge_others t c (Some pd) ~lo:0 ~hi:max_int;
    round t c

  let new_segment t ?name ?align_shift ~pages () =
    let c = sched t 4 in
    spanned t c "new_segment" @@ fun () ->
    S.new_segment t.cores_hw.(c) ?name ?align_shift ~pages ()

  let destroy_segment t seg =
    let c = sched t 5 in
    spanned t c "destroy_segment" @@ fun () ->
    migrate t c;
    S.destroy_segment t.cores_hw.(c) seg;
    purge_others t c None ~lo:seg.Segment.base ~hi:(Segment.limit seg);
    round t c

  let attach t pd seg r =
    let c = sched t 6 in
    spanned t c "attach" @@ fun () ->
    migrate t c;
    seg_revocations t c pd seg (fun core -> S.attach core pd seg r)

  let detach t pd seg =
    let c = sched t 7 in
    spanned t c "detach" @@ fun () ->
    migrate t c;
    seg_revocations t c pd seg (fun core -> S.detach core pd seg)

  let grant t pd va r =
    let c = sched t 8 in
    spanned t c "grant" @@ fun () ->
    migrate t c;
    let old = Os_core.rights t.os pd va in
    S.grant t.cores_hw.(c) pd va r;
    let nw = Os_core.rights t.os pd va in
    if not (Rights.subset old nw) then begin
      if t.purge <> Eager then
        add_pending_except t c (Pd.to_int pd)
          (Va.vpn_of_va t.os.Os_core.geom va)
          (Rights.to_int old);
      let lo, hi = unit_range t va in
      purge_others t c (Some pd) ~lo ~hi;
      revoked t c
    end

  let protect_all t va r =
    let c = sched t 9 in
    spanned t c "protect_all" @@ fun () ->
    migrate t c;
    let olds =
      List.map
        (fun pd -> (pd, Rights.to_int (Os_core.rights t.os pd va)))
        (Os_core.domain_list t.os)
    in
    S.protect_all t.cores_hw.(c) va r;
    let vpn = Va.vpn_of_va t.os.Os_core.geom va in
    let hazard =
      List.fold_left
        (fun hz (pd, old_i) ->
          let nw = Os_core.rights t.os pd va in
          if not (Rights.subset (Rights.of_int old_i) nw) then begin
            if t.purge <> Eager then
              add_pending_except t c (Pd.to_int pd) vpn old_i;
            true
          end
          else hz)
        false olds
    in
    if hazard then begin
      let lo, hi = unit_range t va in
      purge_others t c None ~lo ~hi;
      revoked t c
    end

  let protect_segment t pd seg r =
    let c = sched t 10 in
    spanned t c "protect_segment" @@ fun () ->
    migrate t c;
    seg_revocations t c pd seg (fun core -> S.protect_segment core pd seg r)

  let unmap_page t vpn =
    let c = sched t 11 in
    spanned t c "unmap_page" @@ fun () ->
    migrate t c;
    S.unmap_page t.cores_hw.(c) vpn;
    round t c

  (* Written straight-line (no [spanned] closure) so the obs-disabled
     access path allocates nothing — gated by bench/shootdown.exe. *)
  let access t kind va =
    let c = sched t 12 in
    if t.obs_on then Obs.op_begin t.handles.(c) "access";
    let outcome =
      migrate t c;
      let truth = S.access t.cores_hw.(c) kind va in
      if t.purge = Eager || t.cores = 1 then truth
      else begin
        let m = t.os.Os_core.metrics in
        let vpn = Va.vpn_of_va t.os.Os_core.geom va in
        let d = Pd.to_int t.thread_current in
        let outcome =
          let pi = Flat_tab.find t.pending.(c) ~k1:d ~k2:vpn in
          if pi < 0 then truth
          else if Flat_tab.mem t.touched.(c) ~k1:d ~k2:vpn then begin
            (* the core's private structure still holds the
               pre-revocation entry *)
            let o =
              if Rights.subset (Access.rights_needed kind) (Rights.of_int pi)
              then Access.Ok
              else truth
            in
            (match t.purge with
            | Lazy ->
                (* validated on use: trap, restamp the entry *)
                m.Metrics.stale_hits <- m.Metrics.stale_hits + 1;
                m.Metrics.cycles <- m.Metrics.cycles + t.c_stale_trap;
                Flat_tab.remove t.pending.(c) ~k1:d ~k2:vpn
            | Batched | Eager -> ());
            o
          end
          else begin
            (* first touch since the revocation: the refill read current
               truth, which stamps the entry with the current version *)
            Flat_tab.remove t.pending.(c) ~k1:d ~k2:vpn;
            truth
          end
        in
        if outcome = Access.Ok then
          Flat_tab.replace t.touched.(c) ~k1:d ~k2:vpn ~v:1;
        outcome
      end
    in
    if t.obs_on then begin
      Obs.op_end t.handles.(c) "access";
      Obs.tick t.handles.(c)
    end;
    outcome

  let charge_external t ~cycles ~page_ins ~page_outs =
    let c = sched t 13 in
    spanned t c "charge_external" @@ fun () ->
    S.charge_external t.cores_hw.(c) ~cycles ~page_ins ~page_outs
end
