(* Lockstep of the production (flat int-lane) OS tables against the
   boxed reference models in this directory (Ref_ipt, Ref_segment_table,
   Ref_cap_registry, Ref_os_store), under the kind of
   attach/detach/revoke churn the sharded simulation applies, plus the
   integer-geometry boundary regressions from the scale work (49-bit
   vpns, tens of millions of frames). *)

open Sasos
open Sasos.Os
open Sasos.Mem

let geom = Geometry.default

(* --- inverted page table: Flat_tab lanes vs reference Hashtbl -------- *)

(* vpn universe mixing small pages with the top of the 49-bit vpn space *)
let vpns =
  [| 0; 1; 2; 17; 4095; 1 lsl 20; (1 lsl 30) - 1; 1 lsl 30; (1 lsl 49) - 3 |]

let ipt_states ref_t packed_t ctx =
  Alcotest.(check int)
    (ctx ^ ": mapped_count")
    (Ref_ipt.mapped_count ref_t)
    (Inverted_page_table.mapped_count packed_t);
  Array.iter
    (fun vpn ->
      Alcotest.(check int)
        (Printf.sprintf "%s: find_bits %d" ctx vpn)
        (Ref_ipt.find_bits ref_t ~vpn)
        (Inverted_page_table.find_bits packed_t ~vpn))
    vpns

let apply_ipt ref_t packed_t op =
  let vpn = vpns.(op lsr 2 mod Array.length vpns) in
  let pfn = op lsr 6 land 0xFFFF in
  match op land 3 with
  | 0 ->
      if not (Ref_ipt.is_mapped ref_t ~vpn) then begin
        Ref_ipt.map ref_t ~vpn ~pfn;
        Inverted_page_table.map packed_t ~vpn ~pfn
      end
  | 1 ->
      Alcotest.(check int) "unmap_bits"
        (Ref_ipt.unmap_bits ref_t ~vpn)
        (Inverted_page_table.unmap_bits packed_t ~vpn)
  | 2 ->
      Ref_ipt.set_dirty ref_t ~vpn;
      Inverted_page_table.set_dirty packed_t ~vpn
  | _ ->
      Ref_ipt.set_referenced ref_t ~vpn;
      Inverted_page_table.set_referenced packed_t ~vpn

let prop_ipt_lockstep =
  QCheck.Test.make ~count:120 ~name:"inverted page table packed lockstep"
    QCheck.(list_of_size Gen.(int_range 0 300) (int_bound ((1 lsl 22) - 1)))
    (fun ops ->
      let ref_t = Ref_ipt.create () in
      let packed_t = Inverted_page_table.create () in
      List.iter (apply_ipt ref_t packed_t) ops;
      ipt_states ref_t packed_t "after ops";
      true)

(* --- backing store (flat lanes since the scale work) vs a model ------ *)

let test_backing_store_model () =
  let bs = Backing_store.create () in
  let model = Hashtbl.create 64 in
  for round = 0 to 5_000 do
    let vpn = vpns.(round mod Array.length vpns) in
    match round mod 3 with
    | 0 ->
        let bytes = (round land 7) * 512 in
        Backing_store.write bs ~vpn ~bytes_used:bytes;
        Hashtbl.replace model vpn bytes
    | 1 ->
        Backing_store.drop bs ~vpn;
        Hashtbl.remove model vpn
    | _ ->
        Alcotest.(check (option int))
          "read" (Hashtbl.find_opt model vpn)
          (Backing_store.read bs ~vpn)
  done;
  Alcotest.(check int) "pages" (Hashtbl.length model) (Backing_store.pages bs);
  Alcotest.(check int) "bytes"
    (Hashtbl.fold (fun _ b acc -> acc + b) model 0)
    (Backing_store.bytes_used bs);
  Array.iter
    (fun vpn ->
      Alcotest.(check bool) "resident" (Hashtbl.mem model vpn)
        (Backing_store.resident bs ~vpn))
    vpns

(* --- segment table: sorted int lanes vs reference map --------------- *)

let seg_states ref_t packed_t probes ctx =
  Alcotest.(check int)
    (ctx ^ ": live_count")
    (Ref_segment_table.live_count ref_t)
    (Segment_table.live_count packed_t);
  List.iter
    (fun va ->
      Alcotest.(check int)
        (Printf.sprintf "%s: find_id_by_va 0x%x" ctx va)
        (Ref_segment_table.find_id_by_va ref_t va)
        (Segment_table.find_id_by_va packed_t va))
    probes

let prop_segment_lockstep =
  QCheck.Test.make ~count:60 ~name:"segment table packed lockstep"
    QCheck.(list_of_size Gen.(int_range 1 40) (int_bound 1023))
    (fun ops ->
      let ref_t = Ref_segment_table.create geom in
      let packed_t = Segment_table.create geom in
      let segs = ref [] in
      let probes = ref [ 0; 1; max_int / 2 ] in
      List.iter
        (fun op ->
          let pages = 1 + (op land 7) in
          if op land 8 = 0 || !segs = [] then begin
            let a = Ref_segment_table.allocate ref_t ~pages () in
            let b = Segment_table.allocate packed_t ~pages () in
            Alcotest.(check int)
              "same id"
              (Segment.id_to_int a.Segment.id)
              (Segment.id_to_int b.Segment.id);
            Alcotest.(check int) "same base" a.Segment.base b.Segment.base;
            segs := a :: !segs;
            probes :=
              a.Segment.base :: (a.Segment.base + 1)
              :: (Segment.limit a - 1)
              :: Segment.limit a (* guard page *) :: !probes
          end
          else begin
            let n = List.length !segs in
            let victim = List.nth !segs (op lsr 4 mod n) in
            segs := List.filter (fun s -> s != victim) !segs;
            ignore (Ref_segment_table.destroy ref_t victim.Segment.id);
            ignore (Segment_table.destroy packed_t victim.Segment.id)
          end)
        ops;
      seg_states ref_t packed_t !probes "after ops";
      true)

(* --- capability registry: check lanes vs reference ------------------ *)

let test_cap_registry_lockstep () =
  let segs = Segment_table.create geom in
  let ref_r = Ref_cap_registry.create ~seed:97 () in
  let packed_r = Cap_registry.create ~seed:97 () in
  let caps = ref [] in
  for round = 0 to 400 do
    match round mod 4 with
    | 0 ->
        let seg = Segment_table.allocate segs ~pages:2 () in
        let a = Ref_cap_registry.mint ref_r seg Rights.rw in
        let b = Cap_registry.mint packed_r seg Rights.rw in
        Alcotest.(check bool) "same capability" true (a = b);
        caps := a :: !caps
    | 1 when !caps <> [] ->
        let c = List.nth !caps (round lsr 2 mod List.length !caps) in
        Alcotest.(check bool) "validate agrees"
          (Ref_cap_registry.validate ref_r c)
          (Cap_registry.validate packed_r c)
    | 2 when !caps <> [] ->
        let c = List.nth !caps (round lsr 2 mod List.length !caps) in
        let a = Ref_cap_registry.restrict ref_r c Rights.r in
        let b = Cap_registry.restrict packed_r c Rights.r in
        Alcotest.(check bool) "restrict agrees" true (a = b);
        (match a with Ok c' -> caps := c' :: !caps | Error _ -> ())
    | 3 when !caps <> [] ->
        let c = List.nth !caps (round lsr 2 mod List.length !caps) in
        Ref_cap_registry.revoke ref_r c;
        Cap_registry.revoke packed_r c
    | _ -> ()
  done;
  List.iter
    (fun c ->
      Alcotest.(check bool) "final validate agrees"
        (Ref_cap_registry.validate ref_r c)
        (Cap_registry.validate packed_r c))
    !caps

(* --- protection store: Os_core vs the boxed reference -------------- *)

(* One store operation over handles by creation index. Indices are
   reduced modulo the handles that exist when the op runs, so every op is
   meaningful; destroyed domains and segments stay addressable, which
   exercises the stale-handle paths as well. *)
type store_op =
  | New_domain
  | New_segment
  | Destroy_domain of int
  | Destroy_segment of int
  | Attach of int * int * int
  | Detach of int * int
  | Grant of int * int * int * int
  | Clear of int * int * int

let print_store_op = function
  | New_domain -> "new-domain"
  | New_segment -> "new-segment"
  | Destroy_domain d -> Printf.sprintf "destroy-domain %d" d
  | Destroy_segment s -> Printf.sprintf "destroy-segment %d" s
  | Attach (d, s, r) -> Printf.sprintf "attach %d %d %d" d s r
  | Detach (d, s) -> Printf.sprintf "detach %d %d" d s
  | Grant (d, s, p, r) -> Printf.sprintf "grant %d %d %d %d" d s p r
  | Clear (d, s, p) -> Printf.sprintf "clear %d %d %d" d s p

(* Past the dense arrays' initial 16 slots, so pd and segment-id growth
   is exercised on every run. *)
let initial_domains = 20
let initial_segments = 20
let seg_pages = 3

let store_op_gen =
  let open QCheck.Gen in
  let ix = int_bound 1023 in
  frequency
    [
      (2, return New_domain);
      (2, return New_segment);
      (2, map (fun d -> Destroy_domain d) ix);
      (1, map (fun s -> Destroy_segment s) ix);
      (5, map3 (fun d s r -> Attach (d, s, r)) ix ix (int_bound 7));
      (3, map2 (fun d s -> Detach (d, s)) ix ix);
      ( 5,
        map3
          (fun (d, s) p r -> Grant (d, s, p, r))
          (pair ix ix) (int_bound (seg_pages - 1)) (int_bound 7) );
      ( 2,
        map3 (fun d s p -> Clear (d, s, p)) ix ix (int_bound (seg_pages - 1)) );
    ]

let store_states os rs doms segs ctx =
  let pds l = List.map Pd.to_int l in
  let grants l = List.map (fun (pd, r) -> (Pd.to_int pd, Rights.to_int r)) l in
  Alcotest.(check (list int))
    (ctx ^ ": domain_list")
    (pds (Ref_os_store.domain_list rs))
    (pds (Os_core.domain_list os));
  List.iter
    (fun (seg : Segment.t) ->
      (* every page plus the guard page after the segment *)
      for p = 0 to seg_pages do
        let va = seg.Segment.base + (p lsl geom.Geometry.page_shift) in
        let at = Printf.sprintf "%s: va 0x%x" ctx va in
        Alcotest.(check (list (pair int int)))
          (at ^ " domains_with_rights")
          (grants (Ref_os_store.domains_with_rights rs va))
          (grants (Os_core.domains_with_rights os va));
        Alcotest.(check bool)
          (at ^ " page_has_override")
          (Ref_os_store.page_has_override rs va)
          (Os_core.page_has_override os va);
        List.iter
          (fun pd ->
            Alcotest.(check int)
              (Printf.sprintf "%s rights pd %d" at (Pd.to_int pd))
              (Rights.to_int (Ref_os_store.rights rs pd va))
              (Rights.to_int (Os_core.rights os pd va)))
          doms
      done;
      List.iter
        (fun pd ->
          let at =
            Printf.sprintf "%s: pd %d seg %d" ctx (Pd.to_int pd)
              (Segment.id_to_int seg.Segment.id)
          in
          Alcotest.(check (option int))
            (at ^ " attachment")
            (Option.map Rights.to_int (Ref_os_store.attachment rs pd seg))
            (Option.map Rights.to_int (Os_core.attachment os pd seg));
          Alcotest.(check bool)
            (at ^ " has_overrides")
            (Ref_os_store.has_overrides rs pd seg)
            (Os_core.has_overrides os pd seg);
          Alcotest.(check (list int))
            (at ^ " override_units_in_segment")
            (Ref_os_store.override_units_in_segment rs pd seg)
            (Os_core.override_units_in_segment os pd seg))
        doms)
    segs

let prop_store_lockstep =
  QCheck.Test.make ~count:25 ~name:"protection store lockstep vs reference"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_store_op ops))
       QCheck.Gen.(list_size (int_range 0 200) store_op_gen))
    (fun ops ->
      let os = Os_core.create Config.default in
      let rs = Ref_os_store.create os in
      (* handles by creation index, newest last; segments are allocated
         once in the shared segment table *)
      let doms = ref [||] and segs = ref [||] in
      let new_domain () =
        let a = Os_core.new_domain os and b = Ref_os_store.new_domain rs in
        Alcotest.(check int) "same pd" (Pd.to_int b) (Pd.to_int a);
        doms := Array.append !doms [| a |]
      in
      let new_segment () =
        segs :=
          Array.append !segs
            [| Segment_table.allocate os.Os_core.segments ~pages:seg_pages () |]
      in
      for _ = 1 to initial_domains do new_domain () done;
      for _ = 1 to initial_segments do new_segment () done;
      let dom i = !doms.(i mod Array.length !doms) in
      let seg i = !segs.(i mod Array.length !segs) in
      let page_va s p = Segment.page_va (seg s) p in
      let both f g = f os; g rs in
      List.iteri
        (fun i op ->
          (match op with
          | New_domain -> new_domain ()
          | New_segment -> new_segment ()
          | Destroy_domain d ->
              both
                (fun os -> Os_core.destroy_domain os (dom d))
                (fun rs -> Ref_os_store.destroy_domain rs (dom d))
          | Destroy_segment s -> (
              (* retires the address range in the table both consult *)
              try
                ignore
                  (Segment_table.destroy os.Os_core.segments
                     (seg s).Segment.id)
              with Not_found -> ())
          | Attach (d, s, r) ->
              let r = Rights.of_int r in
              both
                (fun os -> Os_core.set_attachment os (dom d) (seg s) r)
                (fun rs -> Ref_os_store.set_attachment rs (dom d) (seg s) r)
          | Detach (d, s) ->
              both
                (fun os -> Os_core.remove_attachment os (dom d) (seg s))
                (fun rs -> Ref_os_store.remove_attachment rs (dom d) (seg s))
          | Grant (d, s, p, r) ->
              let r = Rights.of_int r and va = page_va s p in
              both
                (fun os -> Os_core.set_override os (dom d) va r)
                (fun rs -> Ref_os_store.set_override rs (dom d) va r)
          | Clear (d, s, p) ->
              let va = page_va s p in
              both
                (fun os -> Os_core.clear_override os (dom d) va)
                (fun rs -> Ref_os_store.clear_override rs (dom d) va));
          if i mod 40 = 39 then
            store_states os rs (Array.to_list !doms) (Array.to_list !segs)
              (Printf.sprintf "after op %d (%s)" i (print_store_op op)))
        ops;
      store_states os rs (Array.to_list !doms) (Array.to_list !segs)
        "after ops";
      true)

(* --- geometry boundary regressions ----------------------------------- *)

let test_frames_exceed_pa_space () =
  (* 2^20 frames of 2^12 bytes need 32 physical bits; a 24-bit space
     must be rejected, not silently wrapped in the pfn lane *)
  let small = Geometry.v ~pa_bits:24 () in
  let raised =
    try
      ignore (Config.v ~geom:small ~frames:(1 lsl 20) ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "frames > 2^pa_bits rejected" true raised;
  (* exactly filling the space is fine *)
  ignore (Config.v ~geom:small ~frames:(1 lsl 12) ())

let test_ipt_49_bit_vpn () =
  let t = Inverted_page_table.create () in
  let vpn = (1 lsl 49) - 1 in
  let near = vpn - (1 lsl 30) (* same low-30-bit lane, different high bits *) in
  Inverted_page_table.map t ~vpn ~pfn:123;
  Alcotest.(check bool) "top vpn mapped" true
    (Inverted_page_table.is_mapped t ~vpn);
  Alcotest.(check bool) "lane-aliased vpn distinct" false
    (Inverted_page_table.is_mapped t ~vpn:near);
  Inverted_page_table.set_dirty t ~vpn;
  let bits = Inverted_page_table.find_bits t ~vpn in
  Alcotest.(check int) "pfn intact" 123 (Inverted_page_table.bits_pfn bits);
  Alcotest.(check bool) "dirty" true (Inverted_page_table.bits_dirty bits)

let suite =
  [
    Qprop.to_alcotest prop_ipt_lockstep;
    Alcotest.test_case "backing store matches model" `Quick
      test_backing_store_model;
    Qprop.to_alcotest prop_segment_lockstep;
    Alcotest.test_case "capability registry packed lockstep" `Quick
      test_cap_registry_lockstep;
    Qprop.to_alcotest prop_store_lockstep;
    Alcotest.test_case "frames beyond physical space rejected" `Quick
      test_frames_exceed_pa_space;
    Alcotest.test_case "49-bit vpn keeps full precision" `Quick
      test_ipt_49_bit_vpn;
  ]
