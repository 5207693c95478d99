open Sasos_util
open Sasos_addr
open Sasos_hw
open Sasos_mem

(* The protection database keeps every table on {!Flat_tab} int lanes,
   so the ground-truth [rights] probe (override, then segment binary
   search, then attachment) touches only int arrays and never allocates.
   Three auxiliary indexes replace the O(#domains) scans that would be
   catastrophic at million-domain scale geometries:
     [seg_doms]    seg id -> pds holding an attachment or any override
                   inside the segment (candidates for
                   [domains_with_rights]);
     [unit_over]   protection unit -> number of live-domain overrides
                   (O(1) [page_has_override]);
     [live]        created-and-not-destroyed pds, because only created
                   domains hold rights.

   Pds and segment ids are both handed out densely from 1, so [live] is
   a byte per pd and [seg_doms] an array slot per segment id. As hash
   tables these two indexes held about 30 of the store's 56 MB on one
   250k-domain scale shard. The boxed reference model lives in
   test/ref_os_store.ml and test_os_store.ml runs the two in lockstep. *)

type store = {
  attachments : Flat_tab.t; (* k1 = pd, k2 = seg id -> rights *)
  overrides : Flat_tab.t; (* k1 = pd, k2 = prot unit -> rights *)
  override_counts : Flat_tab.t; (* k1 = pd, k2 = seg id -> count *)
  unit_over : Flat_tab.t; (* prot unit (split lanes) -> live count *)
  mutable seg_doms : int list array; (* seg id -> candidate pds *)
  mutable live : Bytes.t; (* pd -> '\001' while live *)
}

type t = {
  config : Config.t;
  geom : Geometry.t;
  cost : Cost_model.t;
  metrics : Metrics.t;
  segments : Segment_table.t;
  frames : Frame_allocator.t;
  ipt : Inverted_page_table.t;
  disk : Backing_store.t;
  store : store;
  resident_fifo : Int_queue.t;
  mutable next_pd : int;
  mutable flushes : (Va.vpn -> unit) list;
  rng : Prng.t;
  probe : Probe.t;
}

let create (config : Config.t) =
  {
    config;
    geom = config.Config.geom;
    cost = config.Config.cost;
    metrics = Metrics.create ();
    segments = Segment_table.create config.Config.geom;
    frames = Frame_allocator.create ~frames:config.Config.frames;
    ipt = Inverted_page_table.create ();
    disk = Backing_store.create ();
    store =
      {
        attachments = Flat_tab.create ();
        overrides = Flat_tab.create ();
        override_counts = Flat_tab.create ();
        unit_over = Flat_tab.create ();
        seg_doms = Array.make 16 [];
        live = Bytes.make 16 '\000';
      };
    resident_fifo = Int_queue.create ~capacity:4096 ();
    next_pd = 1;
    flushes = [];
    rng = Prng.create ~seed:config.Config.seed;
    probe = Probe.create ();
  }

(* Protection-unit keys split across Flat_tab's two lanes: units reach
   va lsr prot_shift ~ 2^49, beyond one non-negative 30-bit lane. *)
let unit_k1 u = u land 0x3FFF_FFFF
let unit_k2 u = u lsr 30

let live s pd =
  pd >= 0 && pd < Bytes.length s.live && Bytes.unsafe_get s.live pd <> '\000'

(* Double [n] until it exceeds [i]. *)
let rec grown n i = if i < n then n else grown (n * 2) i

let set_live s pd flag =
  if pd >= Bytes.length s.live then begin
    let b = Bytes.make (grown (Bytes.length s.live) pd) '\000' in
    Bytes.blit s.live 0 b 0 (Bytes.length s.live);
    s.live <- b
  end;
  Bytes.set s.live pd flag

let seg_doms s sid =
  if sid < Array.length s.seg_doms then s.seg_doms.(sid) else []

let sd_add s sid pd =
  if sid >= Array.length s.seg_doms then begin
    let a = Array.make (grown (Array.length s.seg_doms) sid) [] in
    Array.blit s.seg_doms 0 a 0 (Array.length s.seg_doms);
    s.seg_doms <- a
  end;
  let cur = s.seg_doms.(sid) in
  if not (List.mem pd cur) then s.seg_doms.(sid) <- pd :: cur

(* Drop pd from the segment's candidate list iff it no longer holds an
   attachment or any override count there. *)
let sd_drop_if_orphan s sid pd =
  if
    Flat_tab.find s.attachments ~k1:pd ~k2:sid < 0
    && Flat_tab.find s.override_counts ~k1:pd ~k2:sid < 0
    && sid < Array.length s.seg_doms
  then s.seg_doms.(sid) <- List.filter (fun p -> p <> pd) s.seg_doms.(sid)

let unit_over_bump s u delta =
  let k1 = unit_k1 u and k2 = unit_k2 u in
  let c = Flat_tab.find s.unit_over ~k1 ~k2 in
  let c = (if c < 0 then 0 else c) + delta in
  if c <= 0 then Flat_tab.remove s.unit_over ~k1 ~k2
  else Flat_tab.replace s.unit_over ~k1 ~k2 ~v:c

let add_core t ~flush = t.flushes <- t.flushes @ [ flush ]

let new_domain t =
  let pd = t.next_pd in
  t.next_pd <- pd + 1;
  set_live t.store pd '\001';
  Pd.of_int pd

(* Creation order is ascending pd: ids are handed out monotonically. *)
let domain_list t =
  let s = t.store in
  let rec go pd acc =
    if pd < 1 then acc
    else go (pd - 1) (if live s pd then Pd.of_int pd :: acc else acc)
  in
  go (t.next_pd - 1) []

let destroy_domain t pd =
  let s = t.store in
  let i = Pd.to_int pd in
  let was_live = live s i in
  let collect tab =
    Flat_tab.fold tab (fun k1 k2 _ acc -> if k1 = i then k2 :: acc else acc) []
  in
  let att_segs = collect s.attachments in
  let over_units = collect s.overrides in
  let count_segs = collect s.override_counts in
  List.iter (fun sid -> Flat_tab.remove s.attachments ~k1:i ~k2:sid) att_segs;
  List.iter
    (fun u ->
      Flat_tab.remove s.overrides ~k1:i ~k2:u;
      if was_live then unit_over_bump s u (-1))
    over_units;
  List.iter
    (fun sid -> Flat_tab.remove s.override_counts ~k1:i ~k2:sid)
    count_segs;
  if was_live then set_live s i '\000';
  List.iter
    (fun sid -> sd_drop_if_orphan s sid i)
    (List.sort_uniq compare (att_segs @ count_segs))

let prot_unit t va = va lsr t.geom.Geometry.prot_shift

let rights t pd va =
  let s = t.store in
  let pdi = Pd.to_int pd in
  let o = Flat_tab.find s.overrides ~k1:pdi ~k2:(prot_unit t va) in
  if o >= 0 then Rights.of_int o
  else
    let sid = Segment_table.find_id_by_va t.segments va in
    if sid < 0 then Rights.none
    else
      let a = Flat_tab.find s.attachments ~k1:pdi ~k2:sid in
      if a >= 0 then Rights.of_int a else Rights.none

let set_attachment t pd seg r =
  let s = t.store in
  let sid = Segment.id_to_int seg.Segment.id in
  let pdi = Pd.to_int pd in
  Flat_tab.replace s.attachments ~k1:pdi ~k2:sid ~v:(Rights.to_int r);
  sd_add s sid pdi

let remove_attachment t pd (seg : Segment.t) =
  let s = t.store in
  let sid = Segment.id_to_int seg.Segment.id in
  let pdi = Pd.to_int pd in
  let shift = t.geom.Geometry.prot_shift in
  Flat_tab.remove s.attachments ~k1:pdi ~k2:sid;
  (* per-page overrides within the segment die with the attachment *)
  let was_live = live s pdi in
  for unit = seg.Segment.base lsr shift to (Segment.limit seg - 1) lsr shift do
    if Flat_tab.find s.overrides ~k1:pdi ~k2:unit >= 0 then begin
      Flat_tab.remove s.overrides ~k1:pdi ~k2:unit;
      if was_live then unit_over_bump s unit (-1)
    end
  done;
  Flat_tab.remove s.override_counts ~k1:pdi ~k2:sid;
  sd_drop_if_orphan s sid pdi

let attachment t pd (seg : Segment.t) =
  let sid = Segment.id_to_int seg.Segment.id in
  let v = Flat_tab.find t.store.attachments ~k1:(Pd.to_int pd) ~k2:sid in
  if v < 0 then None else Some (Rights.of_int v)

let bump_count t pd va delta =
  match Segment_table.find_id_by_va t.segments va with
  | -1 -> ()
  | sid ->
      let s = t.store in
      let pdi = Pd.to_int pd in
      let c = Flat_tab.find s.override_counts ~k1:pdi ~k2:sid in
      let c = (if c < 0 then 0 else c) + delta in
      if c <= 0 then begin
        Flat_tab.remove s.override_counts ~k1:pdi ~k2:sid;
        sd_drop_if_orphan s sid pdi
      end
      else begin
        Flat_tab.replace s.override_counts ~k1:pdi ~k2:sid ~v:c;
        sd_add s sid pdi
      end

let set_override t pd va r =
  let s = t.store in
  let u = prot_unit t va in
  let pdi = Pd.to_int pd in
  if Flat_tab.find s.overrides ~k1:pdi ~k2:u < 0 then begin
    bump_count t pd va 1;
    if live s pdi then unit_over_bump s u 1
  end;
  Flat_tab.replace s.overrides ~k1:pdi ~k2:u ~v:(Rights.to_int r)

let clear_override t pd va =
  let s = t.store in
  let u = prot_unit t va in
  let pdi = Pd.to_int pd in
  if Flat_tab.find s.overrides ~k1:pdi ~k2:u >= 0 then begin
    Flat_tab.remove s.overrides ~k1:pdi ~k2:u;
    bump_count t pd va (-1);
    if live s pdi then unit_over_bump s u (-1)
  end

let has_overrides t pd (seg : Segment.t) =
  let sid = Segment.id_to_int seg.Segment.id in
  Flat_tab.find t.store.override_counts ~k1:(Pd.to_int pd) ~k2:sid >= 0

let override_units_in_segment t pd (seg : Segment.t) =
  if not (has_overrides t pd seg) then []
  else begin
    let shift = t.geom.Geometry.prot_shift in
    let lo = seg.Segment.base lsr shift in
    let hi = (Segment.limit seg - 1) lsr shift in
    let pdi = Pd.to_int pd in
    let units = ref [] in
    for unit = hi downto lo do
      if Flat_tab.find t.store.overrides ~k1:pdi ~k2:unit >= 0 then
        units := unit :: !units
    done;
    !units
  end

let unit_overridden s unit =
  Flat_tab.find s.unit_over ~k1:(unit_k1 unit) ~k2:(unit_k2 unit) > 0

let page_has_override t va = unit_overridden t.store (prot_unit t va)

let domains_with_rights t va =
  let s = t.store in
  let keep pdi =
    if not (live s pdi) then None
    else
      let pd = Pd.of_int pdi in
      let r = rights t pd va in
      if Rights.equal r Rights.none then None else Some (pd, r)
  in
  match Segment_table.find_id_by_va t.segments va with
  | -1 ->
      (* outside every live segment only overrides can grant; the
         per-unit live count tells us whether any exist at all *)
      if not (unit_overridden s (prot_unit t va)) then []
      else List.filter_map (fun pd -> keep (Pd.to_int pd)) (domain_list t)
  | sid ->
      (* candidate lists are unordered; the result is in creation order,
         which is ascending pd *)
      List.filter_map keep (List.sort_uniq compare (seg_doms s sid))

let charge t cycles = t.metrics.Metrics.cycles <- t.metrics.Metrics.cycles + cycles

let kernel_entry t =
  t.metrics.Metrics.kernel_entries <- t.metrics.Metrics.kernel_entries + 1;
  charge t t.cost.Cost_model.kernel_trap

let note_resident t vpn = Int_queue.push t.resident_fifo vpn

(* Top-level recursion: no closure per eviction. *)
let rec flush_cores vpn = function
  | [] -> ()
  | f :: rest ->
      f vpn;
      flush_cores vpn rest

let unmap t ~vpn ~write_back =
  flush_cores vpn t.flushes;
  let bits = Inverted_page_table.unmap_bits t.ipt ~vpn in
  if bits >= 0 then begin
    if write_back && Inverted_page_table.bits_dirty bits then begin
      let bytes = Geometry.page_size t.geom in
      Backing_store.write t.disk ~vpn ~bytes_used:bytes;
      t.metrics.Metrics.page_outs <- t.metrics.Metrics.page_outs + 1;
      charge t t.cost.Cost_model.page_out
    end;
    Frame_allocator.free t.frames (Inverted_page_table.bits_pfn bits)
  end

let rec evict_oldest t =
  let victim = Int_queue.pop t.resident_fifo in
  if victim < 0 then failwith "Os_core: no resident page to evict"
  else if
    (* the FIFO may contain stale entries for pages already unmapped;
       residency is exactly IPT membership *)
    Inverted_page_table.is_mapped t.ipt ~vpn:victim
  then unmap t ~vpn:victim ~write_back:true
  else evict_oldest t

(* Top-level recursion, not a local [let rec]: a closure per page fault
   would defeat the zero-allocation eviction path. *)
let rec acquire_frame t =
  let f = Frame_allocator.alloc_int t.frames in
  if f >= 0 then f
  else begin
    evict_oldest t;
    acquire_frame t
  end

let ensure_mapped t ~vpn =
  let bits = Inverted_page_table.find_bits t.ipt ~vpn in
  if bits >= 0 then Inverted_page_table.bits_pfn bits
  else begin
    t.metrics.Metrics.page_faults <- t.metrics.Metrics.page_faults + 1;
    let pfn = acquire_frame t in
    (* page-in from disk if a copy exists; else zero-fill (cheap) *)
    if Backing_store.resident t.disk ~vpn then begin
      t.metrics.Metrics.page_ins <- t.metrics.Metrics.page_ins + 1;
      charge t t.cost.Cost_model.page_in
    end;
    Inverted_page_table.map t.ipt ~vpn ~pfn;
    note_resident t vpn;
    pfn
  end

let is_resident t ~vpn = Inverted_page_table.is_mapped t.ipt ~vpn

let pfn_int t ~vpn =
  let bits = Inverted_page_table.find_bits t.ipt ~vpn in
  if bits < 0 then -1 else Inverted_page_table.bits_pfn bits

let pa_int t va =
  let vpn = Va.vpn_of_va t.geom va in
  let bits = Inverted_page_table.find_bits t.ipt ~vpn in
  if bits < 0 then -1
  else
    (Inverted_page_table.bits_pfn bits lsl t.geom.Geometry.page_shift)
    lor Va.offset t.geom va

let pa_of t va =
  let pa = pa_int t va in
  if pa < 0 then None else Some pa

let mark_dirty t ~vpn = Inverted_page_table.set_dirty t.ipt ~vpn
