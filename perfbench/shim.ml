(* A SYSTEM-forwarding shim: it sits between a workload and a machine,
   passes every call through unchanged, and keeps two things.

   - The domains and segments it saw created and not yet destroyed, so
     the benchmark can probe [hw_over_allows] over exactly the state the
     workload built (untraced and traced runs alike).
   - With [stats], the host time and minor-heap words spent inside each
     class of call, measured from outside the machine. The simulation is
     untouched either way: the shim reads clocks, never machine state. *)

open Sasos

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

(* Monotonic nanoseconds, allocation-free. *)
let[@inline] now_ns () = Int64.to_int (clock_ns ())

(* Call classes, reported as machine.<name>.{calls,ms,words}. [create]
   covers new_domain and new_segment here, plus machine construction,
   which the benchmark times with {!time_create}. *)
let op_names =
  [| "access"; "switch_domain"; "unmap_page"; "grant"; "attach_detach";
     "protect"; "destroy"; "create" |]

let access_op = 0
let create_op = 7

type stats = { calls : int array; ns : int array; words : int array }

let stats () =
  let n = Array.length op_names in
  { calls = Array.make n 0; ns = Array.make n 0; words = Array.make n 0 }

type seen = { mutable domains : Pd.t list; mutable segments : Segment.t list }

(* Every (live domain, page of a live segment) pair the workload built. *)
let probes seen =
  List.concat_map
    (fun d ->
      List.concat_map
        (fun (s : Segment.t) -> List.init s.pages (fun i -> (d, Segment.page_va s i)))
        seen.segments)
    seen.domains

(* Minor words so far, as an int: exact below 2^53 and never boxed. *)
let[@inline] words () = int_of_float (Gc.minor_words ())

(* Close a timed call opened at ([t0], [w0]). Reads clock and counter
   before touching the arrays, so the bookkeeping is not charged. *)
let close st op t0 w0 =
  let t1 = now_ns () in
  let w1 = words () in
  st.calls.(op) <- st.calls.(op) + 1;
  st.ns.(op) <- st.ns.(op) + (t1 - t0);
  st.words.(op) <- st.words.(op) + (w1 - w0)

module Make
    (S : Os.System_intf.SYSTEM)
    (C : sig
      val seen : seen
      val stats : stats option
    end) : Os.System_intf.SYSTEM with type t = S.t = struct
  include S

  (* Written out per call rather than through a closure-taking helper:
     an untraced call then allocates nothing beyond the machine's own. *)
  let access t kind va =
    match C.stats with
    | None -> S.access t kind va
    | Some st ->
        let w0 = words () in
        let t0 = now_ns () in
        let r = S.access t kind va in
        close st access_op t0 w0;
        r

  let switch_domain t pd =
    match C.stats with
    | None -> S.switch_domain t pd
    | Some st ->
        let w0 = words () in
        let t0 = now_ns () in
        S.switch_domain t pd;
        close st 1 t0 w0

  let unmap_page t vpn =
    match C.stats with
    | None -> S.unmap_page t vpn
    | Some st ->
        let w0 = words () in
        let t0 = now_ns () in
        S.unmap_page t vpn;
        close st 2 t0 w0

  let grant t pd va r =
    match C.stats with
    | None -> S.grant t pd va r
    | Some st ->
        let w0 = words () in
        let t0 = now_ns () in
        S.grant t pd va r;
        close st 3 t0 w0

  let attach t pd seg r =
    match C.stats with
    | None -> S.attach t pd seg r
    | Some st ->
        let w0 = words () in
        let t0 = now_ns () in
        S.attach t pd seg r;
        close st 4 t0 w0

  let detach t pd seg =
    match C.stats with
    | None -> S.detach t pd seg
    | Some st ->
        let w0 = words () in
        let t0 = now_ns () in
        S.detach t pd seg;
        close st 4 t0 w0

  let protect_all t va r =
    match C.stats with
    | None -> S.protect_all t va r
    | Some st ->
        let w0 = words () in
        let t0 = now_ns () in
        S.protect_all t va r;
        close st 5 t0 w0

  let protect_segment t pd seg r =
    match C.stats with
    | None -> S.protect_segment t pd seg r
    | Some st ->
        let w0 = words () in
        let t0 = now_ns () in
        S.protect_segment t pd seg r;
        close st 5 t0 w0

  let destroy_domain t pd =
    (match C.stats with
    | None -> S.destroy_domain t pd
    | Some st ->
        let w0 = words () in
        let t0 = now_ns () in
        S.destroy_domain t pd;
        close st 6 t0 w0);
    C.seen.domains <- List.filter (fun d -> not (Pd.equal d pd)) C.seen.domains

  let destroy_segment t (seg : Segment.t) =
    (match C.stats with
    | None -> S.destroy_segment t seg
    | Some st ->
        let w0 = words () in
        let t0 = now_ns () in
        S.destroy_segment t seg;
        close st 6 t0 w0);
    C.seen.segments <-
      List.filter
        (fun (s : Segment.t) -> not (Segment.id_equal s.id seg.id))
        C.seen.segments

  let new_domain t =
    let pd =
      match C.stats with
      | None -> S.new_domain t
      | Some st ->
          let w0 = words () in
          let t0 = now_ns () in
          let pd = S.new_domain t in
          close st create_op t0 w0;
          pd
    in
    C.seen.domains <- pd :: C.seen.domains;
    pd

  let new_segment t ?name ?align_shift ~pages () =
    let seg =
      match C.stats with
      | None -> S.new_segment t ?name ?align_shift ~pages ()
      | Some st ->
          let w0 = words () in
          let t0 = now_ns () in
          let seg = S.new_segment t ?name ?align_shift ~pages () in
          close st create_op t0 w0;
          seg
    in
    C.seen.segments <- seg :: C.seen.segments;
    seg
end

(* Wrap a machine. The returned machine is the same simulation seen
   through the shim; [seen] fills as the workload creates state. *)
let wrap ?stats (Os.System_intf.Packed ((module S), s)) =
  let seen = { domains = []; segments = [] } in
  let module W =
    Make
      (S)
      (struct
        let seen = seen
        let stats = stats
      end)
  in
  (Os.System_intf.Packed ((module W), s), seen)

(* Build a machine, charging its construction to [create] when traced. *)
let time_create stats build =
  match stats with
  | None -> build ()
  | Some st ->
      let w0 = words () in
      let t0 = now_ns () in
      let m = build () in
      close st create_op t0 w0;
      m
