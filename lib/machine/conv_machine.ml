open Sasos_addr
open Sasos_hw
open Sasos_os

type variant = V_asid | V_flush

(* One core of the machine: [os] is the OS half, shared by every core
   added over it; the rest is this core's hardware. *)
type state = {
  os : Os_core.t;
  tlb : Tlb.t;
  cache : Data_cache.t;
  l2 : Data_cache.t option;
  variant : variant;
  mutable current : Pd.t;
}

let metrics t = t.os.Os_core.metrics
let cost t = t.os.Os_core.cost
let geom t = t.os.Os_core.geom
let current_domain t = t.current

(* The TLB space tag: the domain's ASID, or 0 when the TLB is untagged and
   flushed on every switch. *)
let space_of t pd =
  match t.variant with V_asid -> Pd.to_int pd | V_flush -> 0

(* The cache homonym tag mirrors the TLB discipline for VIVT caches. *)
let cache_space_of t pd =
  match t.variant with V_asid -> Pd.to_int pd | V_flush -> 0

let switch_domain t pd =
  let m = metrics t in
  let c = cost t in
  m.Metrics.domain_switches <- m.Metrics.domain_switches + 1;
  Os_core.charge t.os (c.Cost_model.domain_switch + c.Cost_model.pd_id_write);
  (match t.variant with
  | V_asid -> ()
  | V_flush ->
      (* no ASIDs: purge translations, and flush the VIVT cache to kill
         homonyms (the i860 regime, §2.2) *)
      let dropped = Tlb.flush t.tlb in
      Machine_common.charge_sweep t.os ~inspected:(Tlb.capacity t.tlb)
        ~removed:dropped;
      let flushed, _wb = Data_cache.flush_all t.cache in
      m.Metrics.cache_lines_flushed <- m.Metrics.cache_lines_flushed + flushed;
      Os_core.charge t.os (c.Cost_model.cache_line_flush * flushed));
  t.current <- pd

let new_segment t ?name ?align_shift ~pages () =
  Segment_table.allocate t.os.Os_core.segments ?name ?align_shift ~pages ()

(* The shootdown sweep: this core's entries of the domain's space (every
   space on [None]) for the pages of [lo, hi), unless the TLB is untagged
   and the domain is not running here (its entries died at the last
   switch). *)
let purge t pd ~lo ~hi =
  let here =
    match pd with
    | None -> true
    | Some pd -> t.variant = V_asid || Pd.equal pd t.current
  in
  if here then begin
    let g = geom t in
    let first = Va.vpn_of_va g lo and last = Va.vpn_of_va g (hi - 1) in
    let _, removed =
      Tlb.purge_matching t.tlb (fun sp vpn _ ->
          (match pd with None -> true | Some pd -> sp = space_of t pd)
          && vpn >= first && vpn <= last)
    in
    Machine_common.charge_sweep t.os ~inspected:(Tlb.capacity t.tlb) ~removed
  end

(* Destroying a domain purges its address space's TLB entries. *)
let destroy_domain t pd =
  Machine_common.refuse_running ~current:t.current pd;
  Os_core.kernel_entry t.os;
  Os_core.destroy_domain t.os pd;
  match t.variant with
  | V_asid ->
      let inspected, removed = Tlb.purge_space t.tlb (Pd.to_int pd) in
      Machine_common.charge_sweep t.os ~inspected ~removed
  | V_flush -> () (* its entries died at the last switch *)

let attach t pd seg rights =
  let m = metrics t in
  m.Metrics.attaches <- m.Metrics.attaches + 1;
  Os_core.kernel_entry t.os;
  let restricting =
    match Os_core.attachment t.os pd seg with
    | Some old -> not (Rights.subset old rights)
    | None -> false
  in
  Os_core.set_attachment t.os pd seg rights;
  (* duplicated per-space page-table state (§3.1): one table write per page *)
  Os_core.charge t.os ((cost t).Cost_model.table_op * seg.Segment.pages);
  (* a restricting re-attach must shoot down this space's resident entries *)
  if restricting then
    purge t (Some pd) ~lo:seg.Segment.base ~hi:(Segment.limit seg)

let detach t pd seg =
  let m = metrics t in
  m.Metrics.detaches <- m.Metrics.detaches + 1;
  Os_core.kernel_entry t.os;
  Os_core.remove_attachment t.os pd seg;
  Os_core.charge t.os ((cost t).Cost_model.table_op * seg.Segment.pages);
  (* shoot down this space's TLB entries for the segment *)
  purge t (Some pd) ~lo:seg.Segment.base ~hi:(Segment.limit seg)

let grant t pd va rights =
  let m = metrics t in
  let c = cost t in
  m.Metrics.grants <- m.Metrics.grants + 1;
  Os_core.kernel_entry t.os;
  Os_core.set_override t.os pd va rights;
  Os_core.charge t.os c.Cost_model.table_op;
  (* update or drop the (space, page) TLB entries for the protection unit *)
  let g = geom t in
  let space = space_of t pd in
  List.iter
    (fun vpn ->
      if Tlb.peek t.tlb ~space ~vpn <> Tlb.absent then
        if t.variant = V_flush && not (Pd.equal pd (current_domain t)) then ()
        else begin
          ignore (Tlb.set_rights t.tlb ~space ~vpn rights);
          Os_core.charge t.os c.Cost_model.table_op
        end)
    (Va.vpns_of_ppn g (Os_core.prot_unit t.os va))

(* Change one domain's rights on a whole segment: rewrite the per-space
   page-table rights and sweep the TLB for that space's entries. *)
let protect_segment t pd seg rights =
  let m = metrics t in
  m.Metrics.global_protects <- m.Metrics.global_protects + 1;
  Os_core.kernel_entry t.os;
  let g = geom t in
  List.iter
    (fun unit -> Os_core.clear_override t.os pd (unit lsl g.Geometry.prot_shift))
    (Os_core.override_units_in_segment t.os pd seg);
  Os_core.set_attachment t.os pd seg rights;
  Os_core.charge t.os ((cost t).Cost_model.table_op * seg.Segment.pages);
  if t.variant = V_asid || Pd.equal pd (current_domain t) then begin
    let lo = Segment.first_vpn seg in
    let hi = lo + seg.Segment.pages - 1 in
    let space = space_of t pd in
    ignore
      (Tlb.rewrite t.tlb (fun sp vpn e ->
           if sp = space && vpn >= lo && vpn <= hi then
             Tlb.with_rights e rights
           else e));
    Machine_common.charge_sweep t.os ~inspected:(Tlb.capacity t.tlb)
      ~removed:0
  end

let protect_all t va rights =
  let m = metrics t in
  let c = cost t in
  m.Metrics.global_protects <- m.Metrics.global_protects + 1;
  Os_core.kernel_entry t.os;
  let domains = Os_core.domain_list t.os in
  (match Segment_table.find_by_va t.os.Os_core.segments va with
  | None -> ()
  | Some seg ->
      List.iter
        (fun pd ->
          match Os_core.attachment t.os pd seg with
          | Some _ -> Os_core.set_override t.os pd va rights
          | None ->
              if not (Rights.equal (Os_core.rights t.os pd va) Rights.none)
              then Os_core.set_override t.os pd va rights)
        domains);
  Os_core.charge t.os (c.Cost_model.table_op * List.length domains);
  (* one TLB entry per space shares this page: sweep them all (§3.1),
     rewriting each from its own domain's truth — a domain that held no
     rights was not part of the change *)
  let g = geom t in
  let domain_of_space sp =
    match t.variant with
    | V_asid -> Pd.of_int sp
    | V_flush -> current_domain t
  in
  List.iter
    (fun vpn ->
      ignore
        (Tlb.rewrite t.tlb (fun sp evpn e ->
             if evpn = vpn then
               Tlb.with_rights e (Os_core.rights t.os (domain_of_space sp) va)
             else e)))
    (Va.vpns_of_ppn g (Os_core.prot_unit t.os va));
  Machine_common.charge_sweep t.os ~inspected:(Tlb.capacity t.tlb)
    ~removed:0

(* What an eviction or unmap drops on each core (see Plb_machine). *)
let flush_page t vpn =
  Machine_common.flush_l1_page t.os t.cache ~by_frame:true vpn;
  ignore (Tlb.invalidate_vpn_all_spaces t.tlb vpn)

let unmap_page t vpn =
  Os_core.kernel_entry t.os;
  Machine_common.flush_l2_page t.os t.l2 vpn;
  (* replicated TLB entries: shootdown across all spaces (§3.1) *)
  let inspected, removed = Tlb.invalidate_vpn_all_spaces t.tlb vpn in
  Machine_common.charge_sweep t.os ~inspected ~removed;
  Os_core.charge t.os (cost t).Cost_model.table_op;
  Os_core.unmap t.os ~vpn ~write_back:true

let destroy_segment t seg =
  Machine_common.release_segment t.os seg ~detach:(fun pd -> detach t pd seg)
    ~unmap_page:(unmap_page t);
  ignore (Segment_table.destroy t.os.Os_core.segments seg.Segment.id)

let core_over variant os ~probe =
  let config = os.Os_core.config in
  let t =
    {
      os;
      tlb = Machine_common.tlb_of_config ~probe config;
      cache = Machine_common.cache_of_config ~probe config;
      l2 = Machine_common.l2_of_config ~probe config;
      variant;
      current = Pd.kernel;
    }
  in
  Os_core.add_core os ~flush:(flush_page t);
  t

let make_create variant config =
  let os = Os_core.create config in
  core_over variant os ~probe:os.Os_core.probe

let data_path t kind va e =
  let g = geom t in
  let m = metrics t in
  let c = cost t in
  let vpn = Va.vpn_of_va g va in
  let write = kind = Access.Write in
  let pa = (Tlb.pfn_of e lsl g.Geometry.page_shift) lor Va.offset g va in
  Tlb.mark_used t.tlb ~space:(space_of t (current_domain t)) ~vpn ~write;
  if write then Os_core.mark_dirty t.os ~vpn;
  let space = cache_space_of t (current_domain t) in
  let r = Data_cache.access_bits t.cache ~space ~va ~pa ~write in
  if r = 0 then begin
    m.Metrics.cache_hits <- m.Metrics.cache_hits + 1;
    Os_core.charge t.os c.Cost_model.cache_hit
  end
  else begin
    m.Metrics.cache_misses <- m.Metrics.cache_misses + 1;
    Machine_common.charge_fill t.os t.l2 ~va ~pa ~write;
    if r land 2 <> 0 then begin
      m.Metrics.cache_writebacks <- m.Metrics.cache_writebacks + 1;
      Os_core.charge t.os c.Cost_model.cache_writeback
    end;
    m.Metrics.cache_synonyms <- Data_cache.synonyms_detected t.cache
  end

let access t kind va =
  let m = metrics t in
  let c = cost t in
  let g = geom t in
  m.Metrics.accesses <- m.Metrics.accesses + 1;
  (match kind with
  | Access.Write -> m.Metrics.writes <- m.Metrics.writes + 1
  | Access.Read | Access.Execute -> m.Metrics.reads <- m.Metrics.reads + 1);
  let pd = current_domain t in
  let vpn = Va.vpn_of_va g va in
  let space = space_of t pd in
  let needed = Access.rights_needed kind in
  let rec attempt fuel =
    if fuel = 0 then
      failwith "Conv_machine.access: protection fix did not converge";
    let e = Tlb.lookup t.tlb ~space ~vpn in
    if e <> Tlb.absent then begin
      m.Metrics.tlb_hits <- m.Metrics.tlb_hits + 1;
      if Rights.subset needed (Tlb.rights_of e) then begin
        data_path t kind va e;
        Access.Ok
      end
      else begin
        Os_core.kernel_entry t.os;
        let truth = Os_core.rights t.os pd va in
        if Rights.subset needed truth then begin
          (* stale entry: rights were upgraded since the refill *)
          ignore (Tlb.set_rights t.tlb ~space ~vpn truth);
          Os_core.charge t.os c.Cost_model.table_op;
          attempt (fuel - 1)
        end
        else begin
          m.Metrics.protection_faults <- m.Metrics.protection_faults + 1;
          Access.Protection_fault
        end
      end
    end
    else begin
      m.Metrics.tlb_misses <- m.Metrics.tlb_misses + 1;
      Os_core.kernel_entry t.os;
      let truth = Os_core.rights t.os pd va in
      if not (Rights.subset needed truth) then begin
        m.Metrics.protection_faults <- m.Metrics.protection_faults + 1;
        Access.Protection_fault
      end
      else begin
        let pfn = Os_core.ensure_mapped t.os ~vpn in
        (* per-space linear tables: the walk costs more than the single
           shared table of a SASOS (§3.1) *)
        Os_core.charge t.os (2 * c.Cost_model.table_op);
        Tlb.install t.tlb ~space ~vpn
          (Tlb.pack ~pfn ~rights:truth ~aid:0 ~dirty:false ~referenced:false);
        m.Metrics.tlb_refills <- m.Metrics.tlb_refills + 1;
        Os_core.charge t.os c.Cost_model.tlb_refill;
        attempt (fuel - 1)
      end
    end
  in
  attempt 4

let resident_prot_entries_for t va =
  Tlb.entries_for_vpn t.tlb (Va.vpn_of_va (geom t) va)

let hw_over_allows t probes =
  List.exists
    (fun (pd, va) ->
      let vpn = Va.vpn_of_va (geom t) va in
      let e = Tlb.peek t.tlb ~space:(space_of t pd) ~vpn in
      e <> Tlb.absent
      && (t.variant = V_asid || Pd.equal pd (current_domain t))
      && not (Rights.subset (Tlb.rights_of e) (Os_core.rights t.os pd va)))
    probes

module Common = struct
  type t = state

  let model = System_intf.Conventional
  let os t = t.os
  let metrics = metrics

  let charge_external t ~cycles ~page_ins ~page_outs =
    Machine_common.charge_external t.os ~cycles ~page_ins ~page_outs
  let new_domain t = Os_core.new_domain t.os
  let current_domain = current_domain
  let switch_domain = switch_domain
  let destroy_domain = destroy_domain
  let new_segment = new_segment
  let destroy_segment = destroy_segment
  let attach = attach
  let detach = detach
  let grant = grant
  let protect_all = protect_all
  let protect_segment = protect_segment
  let unmap_page = unmap_page
  let access = access
  let resident_prot_entries_for = resident_prot_entries_for
  let hw_over_allows = hw_over_allows
  let add_core t ~probe = core_over t.variant t.os ~probe
  let purge = purge
end

module Asid = struct
  include Common

  let name = "conv-asid"
  let create config = make_create V_asid config
end

module Flush = struct
  include Common

  let name = "conv-flush"
  let create config = make_create V_flush config
end
