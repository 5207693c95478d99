open Sasos_addr
open Sasos_os

type error = { at : int; event : Event.t; reason : string }

exception Bad of string

let replay trace sys =
  let domains : Pd.t option array ref = ref (Array.make 8 None) in
  let segments : Segment.t option array ref = ref (Array.make 8 None) in
  let npd = ref 0 and nseg = ref 0 in
  let grow arr n = if n >= Array.length !arr then begin
      let bigger = Array.make (2 * (n + 1)) None in
      Array.blit !arr 0 bigger 0 (Array.length !arr);
      arr := bigger
    end
  in
  let pd i =
    if i < 0 || i >= !npd then raise (Bad (Printf.sprintf "unknown domain %d" i));
    match !domains.(i) with
    | Some d -> d
    | None -> raise (Bad (Printf.sprintf "domain %d was destroyed" i))
  in
  let seg i =
    if i < 0 || i >= !nseg then
      raise (Bad (Printf.sprintf "unknown segment %d" i));
    match !segments.(i) with
    | Some s -> s
    | None -> raise (Bad (Printf.sprintf "segment %d was destroyed" i))
  in
  let va_of s off =
    let sg = seg s in
    if off < 0 || off >= Segment.size_bytes sg then
      raise (Bad (Printf.sprintf "offset %d outside segment %d" off s));
    sg.Segment.base + off
  in
  let outcomes = ref [] in
  let step event =
    match (event : Event.t) with
    | Event.New_domain ->
        grow domains !npd;
        !domains.(!npd) <- Some (System_ops.new_domain sys);
        incr npd
    | Event.Destroy_domain { pd = d } ->
        let victim = pd d in
        if Pd.equal victim (System_ops.current_domain sys) then
          raise (Bad (Printf.sprintf "domain %d is running" d));
        System_ops.destroy_domain sys victim;
        !domains.(d) <- None
    | Event.New_segment { pages; align_shift; name } ->
        let sg =
          (* the segment table refuses a size or alignment it cannot
             place before it allocates anything *)
          try System_ops.new_segment sys ~name ?align_shift ~pages ()
          with Invalid_argument msg -> raise (Bad msg)
        in
        grow segments !nseg;
        !segments.(!nseg) <- Some sg;
        incr nseg
    | Event.Destroy_segment { seg = s } ->
        System_ops.destroy_segment sys (seg s);
        !segments.(s) <- None
    | Event.Attach { pd = d; seg = s; rights } ->
        System_ops.attach sys (pd d) (seg s) rights
    | Event.Detach { pd = d; seg = s } -> System_ops.detach sys (pd d) (seg s)
    | Event.Grant { pd = d; seg = s; off; rights } ->
        System_ops.grant sys (pd d) (va_of s off) rights
    | Event.Protect_all { seg = s; off; rights } ->
        System_ops.protect_all sys (va_of s off) rights
    | Event.Protect_segment { pd = d; seg = s; rights } ->
        System_ops.protect_segment sys (pd d) (seg s) rights
    | Event.Switch { pd = d } -> System_ops.switch_domain sys (pd d)
    | Event.Access { kind; seg = s; off } ->
        outcomes := System_ops.access sys kind (va_of s off) :: !outcomes
    | Event.Unmap { seg = s; page } ->
        let sg = seg s in
        if page < 0 || page >= sg.Segment.pages then
          raise (Bad (Printf.sprintf "page %d outside segment %d" page s));
        System_ops.unmap_page sys (Segment.first_vpn sg + page)
    | Event.Charge { cycles; page_ins; page_outs } ->
        if cycles < 0 || page_ins < 0 || page_outs < 0 then
          raise (Bad "negative charge");
        System_ops.charge_external sys ~page_ins ~page_outs ~cycles ()
  in
  (* When a collector is ambient, each replayed event becomes a phase span
     named after its keyword; with_phase is exception-safe, so a Bad event
     still closes its span before the error propagates. *)
  let obs = Sasos_obs.Obs.ambient () in
  let step event =
    if Sasos_obs.Obs.enabled obs then
      Sasos_obs.Obs.with_phase obs ("trace:" ^ Event.label event) (fun () ->
          step event)
    else step event
  in
  let rec go i = function
    | [] -> Ok (List.rev !outcomes)
    | event :: rest -> begin
        match step event with
        | () -> go (i + 1) rest
        | exception Bad reason -> Error { at = i; event; reason }
      end
  in
  go 0 trace

let replay_exn trace sys =
  match replay trace sys with
  | Ok outcomes -> outcomes
  | Error { at; event; reason } ->
      invalid_arg
        (Printf.sprintf "Player.replay: event %d (%s): %s" at
           (Event.to_line event) reason)
