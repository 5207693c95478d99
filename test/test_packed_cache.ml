(* Differential equivalence harness: the production Packed_cache against
   Ref_cache (the same API over the boxed Assoc_cache reference model) in
   lockstep. Random op sequences over all three policies and several
   geometries — including the degenerate 1×1 and a large one — must
   produce identical results op by op AND identical statistics and
   contents at every step. The key generator deliberately includes the
   min_int hash class (the PR 1 [Assoc_cache.set_of] adversary): keys
   whose mixed hash lands on negative ints exercise the sign-mask in
   the packed set indexing. *)

open Sasos.Hw

module Q = QCheck2

type op =
  | Find of int * int
  | Insert of int * int * int
  | Set of int * int * int
  | Set_masked of int * int * int * int
  | Remove of int * int
  | Purge of int (* drop entries whose payload mod n = 0 *)
  | Clear

(* The adversarial hash family: a pure function of the key that lands on
   min_int (and friends) for a slice of the key space, so the mixed value
   [h lxor (h lsr 16)] goes negative. An implementation that indexes sets
   without masking would die (or diverge) here. *)
let hash_of k1 k2 =
  if k1 land 3 = 0 then min_int lor (k1 * 31) lxor k2
  else (k1 * 0x9e3779b1) lxor (k2 * 0x85ebca6b)

let op_gen =
  let open Q.Gen in
  let key = pair (int_bound 40) (int_bound 8) in
  let payload = int_bound 1000 in
  frequency
    [
      (4, map (fun (k1, k2) -> Find (k1, k2)) key);
      (4, map2 (fun (k1, k2) v -> Insert (k1, k2, v)) key payload);
      (2, map2 (fun (k1, k2) v -> Set (k1, k2, v)) key payload);
      ( 2,
        map3
          (fun (k1, k2) mask bits -> Set_masked (k1, k2, mask, bits land mask))
          key (int_bound 255) (int_bound 255) );
      (2, map (fun (k1, k2) -> Remove (k1, k2)) key);
      (1, map (fun n -> Purge (n + 2)) (int_bound 4));
      (1, return Clear);
    ]

let print_op = function
  | Find (a, b) -> Printf.sprintf "Find(%d,%d)" a b
  | Insert (a, b, v) -> Printf.sprintf "Insert(%d,%d,%d)" a b v
  | Set (a, b, v) -> Printf.sprintf "Set(%d,%d,%d)" a b v
  | Set_masked (a, b, m, x) -> Printf.sprintf "Set_masked(%d,%d,%d,%d)" a b m x
  | Remove (a, b) -> Printf.sprintf "Remove(%d,%d)" a b
  | Purge n -> Printf.sprintf "Purge(%d)" n
  | Clear -> "Clear"

let geometries = [ (1, 1); (1, 4); (4, 4); (8, 2); (3, 5); (16, 8) ]
let policies = [ Replacement.Lru; Replacement.Fifo; Replacement.Random ]

let sorted l = List.sort compare l
let cons k1 k2 v acc = (k1, k2, v) :: acc

let check_stats ~ctx a b =
  let chk name x y =
    if x <> y then
      Q.Test.fail_reportf "%s: %s diverged (ref=%d packed=%d)" ctx name x y
  in
  chk "hits" (Ref_cache.hits a) (Packed_cache.hits b);
  chk "misses" (Ref_cache.misses a) (Packed_cache.misses b);
  chk "evictions" (Ref_cache.evictions a) (Packed_cache.evictions b);
  chk "length" (Ref_cache.length a) (Packed_cache.length b)

let apply_both ~ctx a b op =
  (match op with
  | Find (k1, k2) ->
      let hash = hash_of k1 k2 in
      let ra = Ref_cache.find a ~hash ~k1 ~k2 in
      let rb = Packed_cache.find b ~hash ~k1 ~k2 in
      if ra <> rb then
        Q.Test.fail_reportf "%s: find (ref=%d packed=%d)" ctx ra rb
  | Insert (k1, k2, v) ->
      let hash = hash_of k1 k2 in
      Ref_cache.insert a ~hash ~k1 ~k2 v;
      Packed_cache.insert b ~hash ~k1 ~k2 v;
      let va = Ref_cache.last_eviction a in
      let vb = Packed_cache.last_eviction b in
      if va <> vb then
        Q.Test.fail_reportf "%s: eviction victim diverged" ctx
  | Set (k1, k2, v) ->
      let hash = hash_of k1 k2 in
      let ra = Ref_cache.set a ~hash ~k1 ~k2 v in
      let rb = Packed_cache.set b ~hash ~k1 ~k2 v in
      if ra <> rb then Q.Test.fail_reportf "%s: set result diverged" ctx
  | Set_masked (k1, k2, mask, bits) ->
      let hash = hash_of k1 k2 in
      let ra = Ref_cache.set_masked a ~hash ~k1 ~k2 ~mask ~bits in
      let rb = Packed_cache.set_masked b ~hash ~k1 ~k2 ~mask ~bits in
      if ra <> rb then Q.Test.fail_reportf "%s: set_masked diverged" ctx
  | Remove (k1, k2) ->
      let hash = hash_of k1 k2 in
      let ra = Ref_cache.remove a ~hash ~k1 ~k2 in
      let rb = Packed_cache.remove b ~hash ~k1 ~k2 in
      if ra <> rb then Q.Test.fail_reportf "%s: remove diverged" ctx
  | Purge n ->
      let p _ _ v = v mod n = 0 in
      let ra = Ref_cache.purge a p in
      let rb = Packed_cache.purge b p in
      if ra <> rb then
        Q.Test.fail_reportf "%s: purge (ref=(%d,%d) packed=(%d,%d))" ctx
          (fst ra) (snd ra) (fst rb) (snd rb)
  | Clear ->
      let ra = Ref_cache.clear a in
      let rb = Packed_cache.clear b in
      if ra <> rb then Q.Test.fail_reportf "%s: clear diverged" ctx);
  check_stats ~ctx a b;
  if sorted (Ref_cache.fold cons a []) <> sorted (Packed_cache.fold cons b [])
  then
    Q.Test.fail_reportf "%s: contents diverged" ctx

let lockstep_prop ops =
  List.iter
    (fun (sets, ways) ->
      List.iter
        (fun policy ->
          let a = Ref_cache.create ~policy ~sets ~ways () in
          let b = Packed_cache.create ~policy ~sets ~ways () in
          List.iteri
            (fun i op ->
              let ctx =
                Printf.sprintf "%dx%d %s op#%d %s" sets ways
                  (Replacement.to_string policy)
                  i (print_op op)
              in
              apply_both ~ctx a b op)
            ops)
        policies)
    geometries;
  true

let lockstep =
  Q.Test.make ~name:"packed lockstep vs reference" ~count:200
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    Q.Gen.(list_size (int_range 1 120) op_gen)
    lockstep_prop

(* Regression: keys whose hash is exactly min_int (mixed value is
   negative) must index a valid set and behave identically on both
   models — the same family as the Assoc_cache.set_of min_int bug. *)
let test_min_int_hash () =
  List.iter
    (fun (sets, ways) ->
      let a = Ref_cache.create ~sets ~ways () in
      let b = Packed_cache.create ~sets ~ways () in
      List.iteri
        (fun i hash ->
          let k1 = i and k2 = 7 in
          Ref_cache.insert a ~hash ~k1 ~k2 i;
          Packed_cache.insert b ~hash ~k1 ~k2 i;
          Alcotest.(check int)
            (Printf.sprintf "find after insert (hash=%d)" hash)
            (Ref_cache.find a ~hash ~k1 ~k2)
            (Packed_cache.find b ~hash ~k1 ~k2))
        [ min_int; min_int + 1; min_int lxor 0xffff; -1; max_int; 0 ];
      Alcotest.(check int) "length agrees" (Ref_cache.length a)
        (Packed_cache.length b);
      Alcotest.(check int) "hits agree" (Ref_cache.hits a)
        (Packed_cache.hits b))
    [ (1, 1); (7, 3); (64, 4) ]

(* The PLB's own key hash, driven through the wrapper with PDs/addresses
   chosen so the multiplicative mix goes negative: resident entries must
   be found again. *)
let test_plb_adversarial_keys () =
  let plb = Sasos.Hw.Plb.create ~sets:4 ~ways:2 () in
  (* large context-tag PDs (Okamoto ctx_tag_base + id) and high VAs
     drive the multiplicative hash across the sign bit *)
  let pds = [ 0x4000_0000; 0x4000_0001; 0x7fff_ffff; 1 ] in
  List.iteri
    (fun i pdi ->
      let pd = Sasos.Addr.Pd.of_int pdi in
      let va = (i + 1) * 0x1234_5000 in
      Sasos.Hw.Plb.install plb ~pd ~va ~shift:12 Sasos.Addr.Rights.rw;
      match Sasos.Hw.Plb.lookup plb ~pd ~va with
      | Some r ->
          Alcotest.(check bool)
            (Printf.sprintf "rights intact (pd=%#x)" pdi)
            true
            (Sasos.Addr.Rights.equal r Sasos.Addr.Rights.rw)
      | None -> Alcotest.failf "lost pd=%#x va=%#x" pdi va)
    pds

let test_negative_payload_rejected () =
  let t = Packed_cache.create ~sets:1 ~ways:1 () in
  Alcotest.check_raises "insert"
    (Invalid_argument "Packed_cache.insert: payload must be >= 0") (fun () ->
      Packed_cache.insert t ~hash:0 ~k1:0 ~k2:0 (-2))

let suite =
  [
    Qprop.to_alcotest lockstep;
    Alcotest.test_case "min_int hash class" `Quick test_min_int_hash;
    Alcotest.test_case "plb adversarial keys" `Quick test_plb_adversarial_keys;
    Alcotest.test_case "negative payload rejected" `Quick
      test_negative_payload_rejected;
  ]
