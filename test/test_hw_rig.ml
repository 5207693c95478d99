(* The three protection-path structures a machine probes on every access
   — PLB, TLB and page-group cache — driven together as one rig, per op,
   against the same structures modelled over the boxed reference cache
   (test/ref_cache.ml) with each wrapper's own hash and key packing.

   The accumulated result of every lookup and the hit/miss/length
   counters of all three structures are compared after every single op,
   under all three replacement policies (Random included: victim draws
   must come from the same splitmix stream on both sides). A directed
   stream replays the hot-path benchmark's PLB/TLB/page-group triples
   three times over, so the later reps run against the recency and
   eviction state the first one left behind. *)

open Sasos
open Sasos.Addr
module Q = QCheck2

type op =
  | Plb_find of { pd : int; va : int }
  | Plb_install of { pd : int; va : int; rights : Rights.t }
  | Tlb_access of { vpn : int; write : bool; refill_pfn : int }
  | Pg_check of { aid : int }
  | Pg_load of { aid : int; write_disabled : bool }

let shift = 12

let refill pfn =
  Hw.Tlb.pack ~pfn ~rights:Rights.rw ~aid:(pfn land 7) ~dirty:false
    ~referenced:false

(* same geometry and warm-up as bench/hot_path.ml's rig: slightly over
   capacity so generated streams mix hits, misses, installs, evictions *)
let warm_up =
  List.init 96 (fun i ->
      let pd = (i land 7) + 1 and va = (i land 127) * 0x1000 in
      Plb_install { pd; va; rights = Rights.rw })
  @ List.init 6 (fun i ->
        Pg_load { aid = i + 1; write_disabled = i land 1 = 0 })

type rig = { plb : Hw.Plb.t; tlb : Hw.Tlb.t; pgc : Hw.Page_group_cache.t }

let rig_step r acc = function
  | Plb_find { pd; va } ->
      acc + Hw.Plb.lookup_bits r.plb ~pd:(Pd.of_int pd) ~va
  | Plb_install { pd; va; rights } ->
      Hw.Plb.install r.plb ~pd:(Pd.of_int pd) ~va ~shift rights;
      acc
  | Tlb_access { vpn; write; refill_pfn } ->
      let e = Hw.Tlb.lookup r.tlb ~space:0 ~vpn in
      if e = Hw.Tlb.absent then begin
        Hw.Tlb.install r.tlb ~space:0 ~vpn (refill refill_pfn);
        acc
      end
      else begin
        Hw.Tlb.mark_used r.tlb ~space:0 ~vpn ~write;
        acc + Hw.Tlb.pfn_of e
      end
  | Pg_check { aid } -> acc + Hw.Page_group_cache.check_bits r.pgc ~aid
  | Pg_load { aid; write_disabled } ->
      Hw.Page_group_cache.load r.pgc ~aid ~write_disabled;
      acc

type model = { m_plb : Ref_cache.t; m_tlb : Ref_cache.t; m_pgc : Ref_cache.t }

(* the same op spelled out against the reference caches: a single-grain
   PLB lookup is one counted probe, a TLB hit sets the referenced/dirty
   bits in place, and page group 0 is the uncounted hardware constant.
   The page-group cache is a single set, so any hash places an entry
   where the production one does. *)
let model_step m acc = function
  | Plb_find { pd; va } ->
      let pn = va lsr shift in
      acc
      + Ref_cache.find m.m_plb
          ~hash:(Hw.Plb.hash_of ~pd ~shift ~pn)
          ~k1:pn ~k2:(Hw.Plb.pack_k2 ~pd ~shift)
  | Plb_install { pd; va; rights } ->
      let pn = va lsr shift in
      Ref_cache.insert m.m_plb
        ~hash:(Hw.Plb.hash_of ~pd ~shift ~pn)
        ~k1:pn ~k2:(Hw.Plb.pack_k2 ~pd ~shift) (Rights.to_int rights);
      acc
  | Tlb_access { vpn; write; refill_pfn } ->
      let hash = Hw.Tlb.hash_of ~space:0 ~vpn in
      let e = Ref_cache.find m.m_tlb ~hash ~k1:0 ~k2:vpn in
      if e = Ref_cache.absent then begin
        Ref_cache.insert m.m_tlb ~hash ~k1:0 ~k2:vpn (refill refill_pfn);
        acc
      end
      else begin
        let bits =
          Hw.Tlb.referenced_bit lor if write then Hw.Tlb.dirty_bit else 0
        in
        ignore
          (Ref_cache.set_masked m.m_tlb ~hash ~k1:0 ~k2:vpn ~mask:bits ~bits);
        acc + Hw.Tlb.pfn_of e
      end
  | Pg_check { aid } ->
      if aid = 0 then acc
      else acc + Ref_cache.find m.m_pgc ~hash:aid ~k1:aid ~k2:0
  | Pg_load { aid; write_disabled } ->
      if aid <> 0 then
        Ref_cache.insert m.m_pgc ~hash:aid ~k1:aid ~k2:0
          (Bool.to_int write_disabled);
      acc

(* a warmed-up rig and model side by side, each with its running sum *)
type pair = { r : rig; m : model; mutable acc_r : int; mutable acc_m : int }

let make ?(pg_entries = 8) policy =
  let r =
    {
      plb = Hw.Plb.create ~policy ~sets:16 ~ways:4 ();
      tlb = Hw.Tlb.create ~policy ~sets:16 ~ways:4 ();
      pgc = Hw.Page_group_cache.create ~policy ~entries:pg_entries ();
    }
  and m =
    {
      m_plb = Ref_cache.create ~policy ~sets:16 ~ways:4 ();
      m_tlb = Ref_cache.create ~policy ~sets:16 ~ways:4 ();
      m_pgc = Ref_cache.create ~policy ~sets:1 ~ways:pg_entries ();
    }
  in
  List.iter (fun op -> ignore (rig_step r 0 op, model_step m 0 op)) warm_up;
  { r; m; acc_r = 0; acc_m = 0 }

let step p op =
  p.acc_r <- rig_step p.r p.acc_r op;
  p.acc_m <- model_step p.m p.acc_m op

let rig_stats { plb; tlb; pgc } =
  Hw.
    [
      (Plb.hits plb, Plb.misses plb, Plb.length plb);
      (Tlb.hits tlb, Tlb.misses tlb, Tlb.length tlb);
      Page_group_cache.(hits pgc, misses pgc, length pgc);
    ]

let model_stats m =
  List.map
    (fun c -> Ref_cache.(hits c, misses c, length c))
    [ m.m_plb; m.m_tlb; m.m_pgc ]

let op_gen =
  let open Q.Gen in
  let pd = int_range 1 8 and va = map (fun i -> i * 0x1000) (int_bound 127) in
  let rights = map (fun rw -> if rw then Rights.rw else Rights.r) bool in
  frequency
    [
      (4, map2 (fun pd va -> Plb_find { pd; va }) pd va);
      (2, map3 (fun pd va rights -> Plb_install { pd; va; rights }) pd va
            rights);
      ( 4,
        map3
          (fun vpn write refill_pfn -> Tlb_access { vpn; write; refill_pfn })
          (int_bound 63) bool (int_bound 1000) );
      (3, map (fun aid -> Pg_check { aid }) (int_bound 9));
      ( 1,
        map2
          (fun aid write_disabled -> Pg_load { aid; write_disabled })
          (int_bound 9) bool );
    ]

let prop_lockstep =
  Qprop.to_alcotest
    (Q.Test.make
       ~name:"per-op lockstep vs reference caches, all policies" ~count:80
       Q.Gen.(
         pair
           (oneofl Hw.Replacement.[ Lru; Fifo; Random ])
           (list_size (int_range 1 80) op_gen))
       (fun (policy, ops) ->
         let p = make policy in
         List.for_all
           (fun op ->
             step p op;
             p.acc_r = p.acc_m && rig_stats p.r = model_stats p.m)
           ops))

(* the protection-path triple pattern hot_path replays, with every other
   TLB access going back to one hot page — only LRU keeps it resident
   while a 256-page cold sweep overflows every set of the 64-entry TLB —
   plus stragglers that load a new page group and install over a warm PLB
   entry *)
let hot_path_stream =
  List.concat
    (List.init 512 (fun i ->
         let vpn = if i land 1 = 0 then 0 else (i * 3) land 511 in
         [
           Plb_find { pd = (i land 7) + 1; va = (i * 7) land 127 * 0x1000 };
           Tlb_access { vpn; write = i land 1 = 0; refill_pfn = vpn };
           Pg_check { aid = i land 7 };
         ]))
  @ [
      Pg_load { aid = 9; write_disabled = false };
      Plb_install { pd = 3; va = 0x5000; rights = Rights.r };
      Plb_find { pd = 3; va = 0x5000 };
    ]

let check_hot_path ?pg_entries policy () =
  let p = make ?pg_entries policy in
  for _ = 1 to 3 do
    List.iter (step p) hot_path_stream
  done;
  Alcotest.(check int) "accumulated sum" p.acc_m p.acc_r;
  Alcotest.(check (list (triple int int int)))
    "hit/miss/length counters" (model_stats p.m) (rig_stats p.r)

let suite =
  Hw.Replacement.
    [
      prop_lockstep;
      Alcotest.test_case "hot-path stream, LRU" `Quick (check_hot_path Lru);
      Alcotest.test_case "hot-path stream, FIFO" `Quick (check_hot_path Fifo);
      Alcotest.test_case "hot-path stream, Random" `Quick
        (check_hot_path Random);
      Alcotest.test_case "hot-path stream, LRU + 4-way page group" `Quick
        (check_hot_path ~pg_entries:4 Lru);
    ]
