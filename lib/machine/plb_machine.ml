open Sasos_addr
open Sasos_hw
open Sasos_os

(* One core of the machine. [os] and [guards] are the OS half, shared by
   every core added over it; the rest is this core's hardware. *)
type t = {
  os : Os_core.t;
  (* Okamoto execution-point extension (paper §5): data segments guarded by
     a code segment *)
  guards : (int, int * Rights.t) Hashtbl.t; (* data seg -> (code seg, rights) *)
  plb : Plb.t;
  tlb : Tlb.t; (* space = 0: translations are global, off the critical path *)
  cache : Data_cache.t;
  l2 : Data_cache.t option;
  mutable current : Pd.t;
  mutable code_context : Segment.t option; (* the current code context register *)
}

let name = "plb"
let model = System_intf.Domain_page

let os t = t.os
let metrics t = t.os.Os_core.metrics

let charge_external t ~cycles ~page_ins ~page_outs =
  Machine_common.charge_external t.os ~cycles ~page_ins ~page_outs
let cost t = t.os.Os_core.cost
let geom t = t.os.Os_core.geom
let new_domain t = Os_core.new_domain t.os
let current_domain t = t.current

(* A domain switch is one protected register write; neither the PLB nor the
   TLB is purged (§4.1.4). *)
let switch_domain t pd =
  let m = metrics t in
  m.Metrics.domain_switches <- m.Metrics.domain_switches + 1;
  Os_core.charge t.os
    ((cost t).Cost_model.domain_switch + (cost t).Cost_model.pd_id_write);
  t.current <- pd

let new_segment t ?name ?align_shift ~pages () =
  Segment_table.allocate t.os.Os_core.segments ?name ?align_shift ~pages ()

let sweep t pred =
  let inspected, removed = Plb.purge_matching t.plb pred in
  Machine_common.charge_sweep t.os ~inspected ~removed

(* The shootdown sweep: this core's entries for [pd] whose protection
   page overlaps [lo, hi). *)
let purge_range t pd ~lo ~hi =
  sweep t (fun epd base shift _ ->
      Pd.equal epd pd && base < hi && base + (1 lsl shift) > lo)

let purge t pd ~lo ~hi =
  match pd with
  | Some pd -> purge_range t pd ~lo ~hi
  | None -> sweep t (fun _ base shift _ -> base < hi && base + (1 lsl shift) > lo)

let purge_segment t pd (seg : Segment.t) =
  purge_range t pd ~lo:seg.Segment.base ~hi:(Segment.limit seg)

(* --- Okamoto execution-point extension (§5 related work) ------------- *)
(* Okamoto et al. extend the domain-page model: a page can be marked
   accessible to any thread currently executing code from a designated
   code page, independent of its protection domain. PLB entries for such
   grants are tagged with a context identifier instead of a PD-ID; the
   processor holds the current code context in a second register and the
   PLB matches either tag. Protected objects can then be invoked without
   a domain switch. *)

let ctx_tag_base = 0x4000_0000

let ctx_pd (cseg : Segment.t) =
  Pd.of_int (ctx_tag_base + Segment.id_to_int cseg.Segment.id)

let guard_rights t va =
  match t.code_context with
  | None -> Rights.none
  | Some cseg -> begin
      match Segment_table.find_by_va t.os.Os_core.segments va with
      | None -> Rights.none
      | Some dseg -> begin
          match
            Hashtbl.find_opt t.guards (Segment.id_to_int dseg.Segment.id)
          with
          | Some (cid, r) when cid = Segment.id_to_int cseg.Segment.id -> r
          | Some _ | None -> Rights.none
        end
    end

(* Entering or leaving guarded code is one register write, like a PD-ID
   change — no kernel involvement. *)
let set_code_context t cseg =
  Os_core.charge t.os (cost t).Cost_model.pd_id_write;
  t.code_context <- cseg

let guard_segment t ~data ~code rights =
  Os_core.kernel_entry t.os;
  Hashtbl.replace t.guards
    (Segment.id_to_int data.Segment.id)
    (Segment.id_to_int code.Segment.id, rights);
  Os_core.charge t.os (cost t).Cost_model.table_op

let unguard_segment t ~data =
  Os_core.kernel_entry t.os;
  match Hashtbl.find_opt t.guards (Segment.id_to_int data.Segment.id) with
  | None -> ()
  | Some (cid, _) ->
      Hashtbl.remove t.guards (Segment.id_to_int data.Segment.id);
      purge_segment t (Pd.of_int (ctx_tag_base + cid)) data

(* Destroying a domain sweeps its PLB entries — the same CAM sweep as a
   detach, over the whole structure. *)
let destroy_domain t pd =
  Machine_common.refuse_running ~current:t.current pd;
  Os_core.kernel_entry t.os;
  Os_core.destroy_domain t.os pd;
  sweep t (fun epd _ _ _ -> Pd.equal epd pd)

(* Attach manipulates no hardware: rights fault into the PLB page by page.
   The exception is a re-attach that reduces an existing attachment — a
   restriction, which must sweep the domain's resident entries for the
   segment so none over-allows. *)
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
  Os_core.charge t.os (cost t).Cost_model.table_op;
  if restricting then purge_segment t pd seg

(* Detach sweeps the PLB: inspect every entry, eliminate those for the
   (segment, domain) pair (Table 1). *)
let detach t pd seg =
  let m = metrics t in
  m.Metrics.detaches <- m.Metrics.detaches + 1;
  Os_core.kernel_entry t.os;
  Os_core.remove_attachment t.os pd seg;
  purge_segment t pd seg;
  Os_core.charge t.os (cost t).Cost_model.table_op

(* Pick the coarsest configured protection page size consistent with the OS
   truth at [va] for [pd] (§4.3): the region must lie inside one segment,
   be covered by the attachment with no per-page overrides, and be aligned. *)
(* Widest configured grain whose naturally-aligned block at [va] lies
   inside [sbase, slimit); [shifts] is ordered fine-to-coarse, so the
   last fit wins.  Top-level recursion rather than a fold with closures:
   this runs on every PLB refill, which must not allocate. *)
let rec widest_fit shifts va sbase slimit acc =
  match shifts with
  | [] -> acc
  | s :: rest ->
      let b = va land lnot ((1 lsl s) - 1) in
      let acc = if b >= sbase && b + (1 lsl s) <= slimit then s else acc in
      widest_fit rest va sbase slimit acc

let refill_shift t pd va =
  match Plb.shifts t.plb with
  | [ s ] -> s
  | shifts -> begin
      let fine = List.hd shifts in
      match Segment_table.find_by_va t.os.Os_core.segments va with
      | None -> fine
      | Some seg ->
          if Os_core.has_overrides t.os pd seg then fine
          else widest_fit shifts va seg.Segment.base (Segment.limit seg) fine
    end

let plb_refill t pd va rights =
  let m = metrics t in
  let shift = refill_shift t pd va in
  Plb.install t.plb ~pd ~va ~shift rights;
  m.Metrics.plb_refills <- m.Metrics.plb_refills + 1;
  Os_core.charge t.os (cost t).Cost_model.plb_refill

(* Change one domain's rights to one page: update the single PLB entry
   (Table 1: "simply requires updating a PLB entry"). *)
let grant t pd va rights =
  let m = metrics t in
  m.Metrics.grants <- m.Metrics.grants + 1;
  Os_core.kernel_entry t.os;
  Os_core.set_override t.os pd va rights;
  Os_core.charge t.os (cost t).Cost_model.table_op;
  (* a resident coarse entry can no longer represent the segment; replace
     whatever is resident for this (domain, page) with a fine entry. This
     is Table 1's "simply requires updating a PLB entry": one entry write,
     not a miss-path refill. *)
  ignore (Plb.invalidate t.plb ~pd ~va);
  if not (Rights.equal rights Rights.none) then begin
    let fine = List.hd (Plb.shifts t.plb) in
    Plb.install t.plb ~pd ~va ~shift:fine rights;
    Os_core.charge t.os (cost t).Cost_model.pd_id_write
  end

(* Change one domain's rights across a whole segment: sweep the PLB,
   rewriting this domain's entries for the segment in place (Table 1,
   checkpoint "Restrict Access" / GC "Flip Spaces"). *)
let protect_segment t pd seg rights =
  let m = metrics t in
  m.Metrics.global_protects <- m.Metrics.global_protects + 1;
  Os_core.kernel_entry t.os;
  List.iter
    (fun unit ->
      Os_core.clear_override t.os pd
        (unit lsl (geom t).Geometry.prot_shift))
    (Os_core.override_units_in_segment t.os pd seg);
  Os_core.set_attachment t.os pd seg rights;
  Os_core.charge t.os (cost t).Cost_model.table_op;
  let lo = seg.Segment.base and hi = Segment.limit seg in
  let inspected, _updated =
    Plb.update_matching t.plb (fun epd base r ->
        if Pd.equal epd pd && base >= lo && base < hi then Some rights
        else Some r)
  in
  Machine_common.charge_sweep t.os ~inspected ~removed:0

(* Change the page's rights for every attached domain: requires a full PLB
   sweep under the domain-page model (Table 1, checkpoint / GC rows). *)
let protect_all t va rights =
  let m = metrics t in
  m.Metrics.global_protects <- m.Metrics.global_protects + 1;
  Os_core.kernel_entry t.os;
  (match Segment_table.find_by_va t.os.Os_core.segments va with
  | None -> ()
  | Some seg ->
      List.iter
        (fun pd ->
          match Os_core.attachment t.os pd seg with
          | Some _ -> Os_core.set_override t.os pd va rights
          | None ->
              (* an override may exist without an attachment *)
              if not (Rights.equal (Os_core.rights t.os pd va) Rights.none)
              then Os_core.set_override t.os pd va rights)
        (Os_core.domain_list t.os));
  Os_core.charge t.os (cost t).Cost_model.table_op;
  let g = geom t in
  let unit = Os_core.prot_unit t.os va in
  let inspected, updated =
    Plb.update_matching t.plb (fun epd base r ->
        (* rewrite any entry whose protection page is the unit from that
           domain's truth — a domain that held no rights was not part of
           the change and must not receive the new value; coarse entries
           covering the unit are demoted by invalidation below *)
        if base lsr g.Geometry.prot_shift = unit then
          Some (Os_core.rights t.os epd va)
        else Some r)
  in
  Machine_common.charge_sweep t.os ~inspected ~removed:0;
  ignore updated;
  (* with several grains, coarse entries covering the page are stale (the
     update above rewrote only matching bases): drop them for all domains *)
  if List.length (Plb.shifts t.plb) > 1 then
    List.iter
      (fun pd' -> ignore (Plb.invalidate t.plb ~pd:pd' ~va))
      (Os_core.domain_list t.os)

(* What an eviction or unmap drops on each core: the page's data-cache
   lines and its TLB entry. *)
let flush_page t vpn =
  Machine_common.flush_l1_page t.os t.cache ~by_frame:false vpn;
  ignore (Tlb.invalidate t.tlb ~space:0 ~vpn)

(* Unmap: flush data-cache lines and drop the TLB entry, on every core
   ([Os_core.unmap] runs each core's [flush_page]). The PLB needs no
   maintenance — stale protection entries are harmless because the
   missing translation stops any access (§4.1.3). *)
let unmap_page t vpn =
  Os_core.kernel_entry t.os;
  Machine_common.flush_l2_page t.os t.l2 vpn;
  Os_core.charge t.os (cost t).Cost_model.table_op;
  Os_core.unmap t.os ~vpn ~write_back:true

let destroy_segment t seg =
  Machine_common.release_segment t.os seg ~detach:(fun pd -> detach t pd seg)
    ~unmap_page:(unmap_page t);
  ignore (Segment_table.destroy t.os.Os_core.segments seg.Segment.id)

(* A core over [os]: fresh hardware structures writing gauges to
   [probe], registered with the OS so evictions and unmaps reach it. *)
let core_over os guards ~probe =
  let config = os.Os_core.config in
  let t =
    {
      os;
      guards;
      plb =
        Plb.create ~policy:config.Config.policy ~seed:config.Config.seed
          ~probe ~shifts:config.Config.plb_shifts ~sets:config.Config.plb_sets
          ~ways:config.Config.plb_ways ();
      tlb = Machine_common.tlb_of_config ~probe config;
      cache = Machine_common.cache_of_config ~probe config;
      l2 = Machine_common.l2_of_config ~probe config;
      current = Pd.kernel;
      code_context = None;
    }
  in
  Os_core.add_core os ~flush:(flush_page t);
  t

let create config =
  let os = Os_core.create config in
  core_over os (Hashtbl.create 16) ~probe:os.Os_core.probe

let add_core t ~probe = core_over t.os t.guards ~probe

(* The data path once protection has approved the access: probe the VIVT
   cache; on a miss consult the (off-critical-path) TLB and fill. *)
let data_path t kind va =
  let g = geom t in
  let m = metrics t in
  let c = cost t in
  let vpn = Va.vpn_of_va g va in
  let write = kind = Access.Write in
  let pa =
    (* zero-allocation translation probe: -1 = not mapped *)
    let pa = Os_core.pa_int t.os va in
    if pa >= 0 then pa
    else begin
        (* Not mapped: the cache cannot hold the line, so this access will
           miss and the TLB miss handler pages it in. *)
        m.Metrics.tlb_misses <- m.Metrics.tlb_misses + 1;
        ignore (Tlb.lookup t.tlb ~space:0 ~vpn);
        Os_core.kernel_entry t.os;
        let pfn = Os_core.ensure_mapped t.os ~vpn in
        Tlb.install t.tlb ~space:0 ~vpn
          (Tlb.pack ~pfn ~rights:Rights.rwx ~aid:0 ~dirty:false
             ~referenced:true);
        m.Metrics.tlb_refills <- m.Metrics.tlb_refills + 1;
        Os_core.charge t.os c.Cost_model.tlb_refill;
        (pfn lsl g.Geometry.page_shift) lor Va.offset g va
      end
  in
  let r = Data_cache.access_bits t.cache ~space:0 ~va ~pa ~write in
  if r = 0 then begin
      m.Metrics.cache_hits <- m.Metrics.cache_hits + 1;
      Os_core.charge t.os c.Cost_model.cache_hit;
      if write then Os_core.mark_dirty t.os ~vpn
  end
  else begin
      m.Metrics.cache_misses <- m.Metrics.cache_misses + 1;
      Machine_common.charge_fill t.os t.l2 ~va ~pa ~write;
      if r land 2 <> 0 then begin
        m.Metrics.cache_writebacks <- m.Metrics.cache_writebacks + 1;
        Os_core.charge t.os c.Cost_model.cache_writeback
      end;
      m.Metrics.cache_synonyms <- Data_cache.synonyms_detected t.cache;
      (* translation was needed to fill the line *)
      (let e = Tlb.lookup t.tlb ~space:0 ~vpn in
       if e <> Tlb.absent then begin
         m.Metrics.tlb_hits <- m.Metrics.tlb_hits + 1;
         Tlb.mark_used t.tlb ~space:0 ~vpn ~write
       end
       else begin
         m.Metrics.tlb_misses <- m.Metrics.tlb_misses + 1;
         Os_core.kernel_entry t.os;
         let pfn = Os_core.ensure_mapped t.os ~vpn in
         Tlb.install t.tlb ~space:0 ~vpn
           (Tlb.pack ~pfn ~rights:Rights.rwx ~aid:0 ~dirty:write
              ~referenced:true);
         m.Metrics.tlb_refills <- m.Metrics.tlb_refills + 1;
         Os_core.charge t.os c.Cost_model.tlb_refill
       end);
      if write then Os_core.mark_dirty t.os ~vpn
    end

let access t kind va =
  let m = metrics t in
  let c = cost t in
  m.Metrics.accesses <- m.Metrics.accesses + 1;
  (match kind with
  | Access.Write -> m.Metrics.writes <- m.Metrics.writes + 1
  | Access.Read | Access.Execute -> m.Metrics.reads <- m.Metrics.reads + 1);
  let pd = current_domain t in
  let needed = Access.rights_needed kind in
  (* PLB probe, in parallel with the cache lookup (Figure 1); with a code
     context loaded, the context-tagged bank is probed as well (Okamoto) *)
  let primary = Plb.lookup_bits t.plb ~pd ~va in
  if primary >= 0 then m.Metrics.plb_hits <- m.Metrics.plb_hits + 1
  else m.Metrics.plb_misses <- m.Metrics.plb_misses + 1;
  let primary_allows =
    primary >= 0 && Rights.subset needed (Rights.of_int primary)
  in
  let context_allows =
    (not primary_allows)
    && (match t.code_context with
       | None -> false
       | Some cseg ->
           let r = Plb.lookup_bits t.plb ~pd:(ctx_pd cseg) ~va in
           if r >= 0 then begin
             m.Metrics.plb_hits <- m.Metrics.plb_hits + 1;
             Rights.subset needed (Rights.of_int r)
           end
           else begin
             m.Metrics.plb_misses <- m.Metrics.plb_misses + 1;
             false
           end)
  in
  if primary_allows || context_allows then begin
    data_path t kind va;
    Access.Ok
  end
  else begin
    (* exception or miss: the kernel decides against the truth *)
    Os_core.kernel_entry t.os;
    Os_core.charge t.os c.Cost_model.table_op;
    let domain_truth = Os_core.rights t.os pd va in
    if Rights.subset needed domain_truth then begin
      (* refresh/refill the domain-tagged entry and restart *)
      ignore (Plb.invalidate t.plb ~pd ~va);
      plb_refill t pd va domain_truth;
      data_path t kind va;
      Access.Ok
    end
    else begin
      let gr = guard_rights t va in
      if Rights.subset needed gr then begin
        (* granted through the execution point: install under the context
           tag so subsequent references hit without the kernel *)
        (match t.code_context with
        | Some cseg ->
            let fine = List.hd (Plb.shifts t.plb) in
            Plb.install t.plb ~pd:(ctx_pd cseg) ~va ~shift:fine gr;
            m.Metrics.plb_refills <- m.Metrics.plb_refills + 1;
            Os_core.charge t.os c.Cost_model.plb_refill
        | None -> ());
        data_path t kind va;
        Access.Ok
      end
      else begin
        m.Metrics.protection_faults <- m.Metrics.protection_faults + 1;
        Access.Protection_fault
      end
    end
  end

let resident_prot_entries_for t va = Plb.entries_for_va t.plb va

let hw_over_allows t probes =
  List.exists
    (fun (pd, va) ->
      let truth = Os_core.rights t.os pd va in
      let over = ref false in
      Plb.iter
        (fun epd base shift r ->
          if Pd.equal epd pd && base = va land lnot ((1 lsl shift) - 1) then
            if not (Rights.subset r truth) then over := true)
        t.plb;
      !over)
    probes
