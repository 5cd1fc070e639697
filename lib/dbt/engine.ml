module Pc_tbl = Gb_util.Pc_tbl

type verify_level = Verify_off | Verify_report | Verify_enforce

type config = {
  adaptive_retranslate : bool;
  adaptive_despec : bool;
  first_pass_threshold : int;
  hot_threshold : int;
  mode : Gb_core.Mitigation.mode;
  opt_override : Gb_ir.Opt_config.t option;
  resources : Sched.resources;
  lat : Gb_ir.Latency.t;
  trace_cfg : Trace_builder.config;
  n_hidden : int;
  cache : Code_cache.config;
  verify : verify_level;
  workers : int;
      (** translation worker domains (0 = fully synchronous). Parallel
          translation is a wall-clock optimisation only: simulated cycle
          counts and all verdicts are bit-identical for every value —
          see docs/CONCURRENCY.md. *)
}

let default_config =
  {
    adaptive_retranslate = true;
    adaptive_despec = false;
    first_pass_threshold = 4;
    hot_threshold = 24;
    mode = Gb_core.Mitigation.Unsafe;
    opt_override = None;
    resources = Sched.default_resources;
    lat = Gb_ir.Latency.default;
    trace_cfg = Trace_builder.default_config;
    n_hidden = 96;
    cache = Code_cache.default_config;
    verify = Verify_off;
    workers = Workers.env_default ();
  }

type stats = {
  mutable retranslations : int;
  mutable despeculations : int;
  mutable first_pass_translations : int;
  mutable translations : int;
  mutable failures : int;
  mutable guest_insns_translated : int;
  mutable patterns_found : int;
  mutable loads_constrained : int;
  mutable fences_inserted : int;
  mutable spec_loads : int;
  mutable branch_spec_loads : int;
  mutable verify_checked : int;
  mutable verify_violations : int;
  mutable verify_rejections : int;
}

(* The owner-domain half of a translation: everything that reads the
   engine's mutable profile state. Plain immutable data once built, so a
   plan may cross domains, and two plans built from the same profile are
   structurally equal — the property the prefetch validity check rests
   on. *)
type plan = {
  p_entry : int;
  p_gtrace : Gb_ir.Gtrace.t;
  p_branch_pcs : int list;
  p_opt : Gb_ir.Opt_config.t;
}

(* Audit-ledger updates the backend wants made; collected as data because
   {!Gb_cache.Audit} is owner-domain state, applied at commit. *)
type audit_note =
  | Note_spec_load of int
  | Note_flagged of int  (* flagged and constrained by the mitigation *)
  | Note_unsafe_flagged of int  (* ground-truth flag under Unsafe *)

type backend_success = {
  b_trace : Gb_vliw.Vinsn.trace;
  b_report : Gb_core.Mitigation.report;
  b_fenced : bool;
}

type backend_result = {
  b_outcome : (backend_success, unit) result;
  b_verify : Gb_verify.Verifier.report list;  (* in call order *)
  b_rejections : int;
  b_notes : audit_note list;  (* in call order *)
  b_obs : Gb_obs.Sink.t;  (* the sink the backend recorded into *)
}

type prefetch = { pf_plan : plan; pf_future : backend_result Workers.future }

type t = {
  cfg : config;
  mem : Gb_riscv.Mem.t;
  cc : Code_cache.t;  (** the single owner of all translated code *)
  block_meta : int option Pc_tbl.t;
      (** entry -> terminal branch pc of the first-level block *)
  blacklist : unit Pc_tbl.t;
  fp_blacklist : unit Pc_tbl.t;
  region_runs : int Pc_tbl.t;
  region_rollbacks : int Pc_tbl.t;
  region_side_exits : int Pc_tbl.t;
  rebuilds : int Pc_tbl.t;  (** bias-driven rebuilds per entry *)
  trace_branches : int list Pc_tbl.t;
      (** entry -> pcs of the conditional branches inside the trace *)
  despeculated : unit Pc_tbl.t;
  hot : int Pc_tbl.t;
  branch_taken : int Pc_tbl.t;  (** pc -> taken count *)
  branch_total : int Pc_tbl.t;
      (** pc -> executions; two int tables rather than one table of
          pairs — the per-exit profile update would otherwise allocate a
          pair per recorded branch *)
  stats : stats;
  obs : Gb_obs.Sink.t;
  audit : Gb_cache.Audit.t option;
  mutable verify_log : (int * Gb_verify.Verifier.violation) list;
      (** (region entry, violation), reverse chronological *)
  mutable translate_fault : (int -> bool) option;
      (** fault injection: entry pc -> fail this translation attempt *)
  pool : Workers.pool option;
      (** translation worker pool when [cfg.workers > 0] *)
  prefetch : prefetch Pc_tbl.t;
      (** entry -> speculative backend run in flight on the pool *)
  allocs : Gb_obs.Allocs.t;
      (** execution-allocation accumulator: translation entry points
          pause it so a window around a run counts only the execution
          tiers (see {!allocs}) *)
}

let create ?(obs = Gb_obs.Sink.noop) ?audit cfg ~mem =
  let t = {
    cfg;
    mem;
    cc = Code_cache.create ~obs cfg.cache;
    block_meta = Pc_tbl.create 128;
    blacklist = Pc_tbl.create 16;
    fp_blacklist = Pc_tbl.create 16;
    region_runs = Pc_tbl.create 128;
    region_rollbacks = Pc_tbl.create 32;
    region_side_exits = Pc_tbl.create 64;
    rebuilds = Pc_tbl.create 16;
    trace_branches = Pc_tbl.create 64;
    despeculated = Pc_tbl.create 16;
    hot = Pc_tbl.create 256;
    branch_taken = Pc_tbl.create 256;
    branch_total = Pc_tbl.create 256;
    stats =
      {
        retranslations = 0;
        despeculations = 0;
        first_pass_translations = 0;
        translations = 0;
        failures = 0;
        guest_insns_translated = 0;
        patterns_found = 0;
        loads_constrained = 0;
        fences_inserted = 0;
        spec_loads = 0;
        branch_spec_loads = 0;
        verify_checked = 0;
        verify_violations = 0;
        verify_rejections = 0;
      };
    obs;
    audit;
    verify_log = [];
    translate_fault = None;
    pool = (if cfg.workers > 0 then Some (Workers.ensure cfg.workers) else None);
    prefetch = Pc_tbl.create 8;
    allocs = Gb_obs.Allocs.create ();
  }
  in
  (* The bugfix half of the eviction contract: a capacity-evicted region
     that later gets re-promoted must not inherit the adaptive counters
     (runs / rollbacks / side exits) accumulated by its previous
     incarnation — they describe code that no longer exists. Explicit
     invalidation (retranslate / despec) does NOT come through here;
     those paths manage their own resets. *)
  Code_cache.set_on_evict t.cc (fun ~pc tier ->
      Pc_tbl.remove t.region_runs pc;
      Pc_tbl.remove t.region_rollbacks pc;
      Pc_tbl.remove t.region_side_exits pc;
      match tier with
      | Code_cache.Block -> Pc_tbl.remove t.block_meta pc
      | Code_cache.Trace -> ());
  t

let config t = t.cfg

let stats t = t.stats

let allocs t = t.allocs

let set_translate_fault t hook = t.translate_fault <- hook

let translate_faulted t entry =
  match t.translate_fault with
  | Some f when f entry ->
    (* injected transient failure: the entry is NOT blacklisted, so a
       later arrival retries and the region eventually translates *)
    Gb_obs.Sink.incr t.obs "translate.injected_faults";
    true
  | Some _ | None -> false

let code_cache t = t.cc

let lookup t pc =
  match Code_cache.find t.cc pc with
  | Some e -> Some e.Code_cache.e_trace
  | None -> None

(* Counter-table helpers for the per-exit accounting below. They run on
   every chained trace exit, and [record_block_entry]'s hot counter on
   every interpreted control transfer, so they must neither allocate nor
   raise: a [Pc_tbl] lookup takes one multiplication to hash and returns
   its default on a miss, and [incr] of an existing key updates it in
   place — only a key's first appearance allocates. (A polymorphic
   [Hashtbl.find] pays [caml_hash] on every probe, and its [Not_found]
   is not free: raising and catching it doubles the cost of a miss,
   83 ns against 40 ns for [find_opt]; see docs/INTERNALS.md §12.) *)
let count tbl key = Pc_tbl.find_or tbl key ~default:0

let bump = Pc_tbl.incr

let record_branch_outcome t pc taken =
  if taken then bump t.branch_taken pc;
  bump t.branch_total pc

let record_branch t ~pc ~taken = record_branch_outcome t pc taken

(* Adaptive de-speculation: a trace whose MCB rollback rate crosses the
   threshold is re-translated without memory speculation — misspeculation
   replay is more expensive than the parallelism it buys. *)
let despec_min_rollbacks = 8

let consider_despeculation t entry =
  if t.cfg.adaptive_despec && not (Pc_tbl.mem t.despeculated entry) then begin
    let rollbacks = count t.region_rollbacks entry in
    let runs = count t.region_runs entry in
    if rollbacks >= despec_min_rollbacks && rollbacks * 8 >= runs then begin
      (* drop the speculative translation; the entry counter is already
         past the hot threshold, so the next arrival re-translates it
         under the de-speculated configuration *)
      Pc_tbl.replace t.despeculated entry ();
      Code_cache.invalidate t.cc entry;
      Pc_tbl.remove t.blacklist entry;
      (* any in-flight prefetch was planned with speculation on — drop it
         (the trigger-time plan comparison would reject it anyway) *)
      Pc_tbl.remove t.prefetch entry;
      t.stats.despeculations <- t.stats.despeculations + 1;
      Gb_obs.Sink.incr t.obs "translate.despeculations";
      Gb_obs.Sink.event t.obs ~pc:entry ~region:entry
        (Gb_obs.Event.Tier_transition { tier = "despeculated" })
    end
  end

(* Adaptive re-translation: when a phase change flips a branch the trace
   was specialised on, essentially every run leaves through its first side
   exit. Drop the stale trace so it is rebuilt from the current profile.
   The threshold is a 3/4 exit ratio: loops with short trip counts exit
   every few runs as a matter of course (~25-50 %) and must not be
   touched — only a flipped bias drives the ratio towards 100 %. A small
   rebuild budget prevents thrashing on genuinely unbiased regions. *)
let retranslate_min_side_exits = 48

let max_bias_rebuilds = 2

(* interpreted executions used to re-learn the branch bias after a stale
   trace is dropped (the old profile is discarded: cumulative counts from
   the previous phase would otherwise dominate the ratio forever) *)
let relearn_window = 16

let has_trace t entry =
  match Code_cache.peek t.cc entry with
  | Some e -> e.Code_cache.e_tier = Code_cache.Trace
  | None -> false

let consider_retranslation t entry =
  if t.cfg.adaptive_retranslate
     && has_trace t entry
     && count t.rebuilds entry < max_bias_rebuilds
  then begin
    let side_exits = count t.region_side_exits entry in
    let runs = count t.region_runs entry in
    if side_exits >= retranslate_min_side_exits && side_exits * 4 >= runs * 3
    then begin
      bump t.rebuilds entry;
      Code_cache.invalidate t.cc entry;
      Pc_tbl.remove t.blacklist entry;
      Pc_tbl.remove t.prefetch entry;
      Pc_tbl.replace t.region_side_exits entry 0;
      Pc_tbl.replace t.region_runs entry 0;
      (* forget the stale bias and re-learn it on the interpreter *)
      List.iter
        (fun pc ->
          Pc_tbl.remove t.branch_taken pc;
          Pc_tbl.remove t.branch_total pc)
        (Pc_tbl.find_or t.trace_branches entry ~default:[]);
      Pc_tbl.replace t.hot entry (t.cfg.hot_threshold - relearn_window);
      t.stats.retranslations <- t.stats.retranslations + 1;
      Gb_obs.Sink.incr t.obs "translate.retranslations";
      Gb_obs.Sink.event t.obs ~pc:entry ~region:entry
        (Gb_obs.Event.Tier_transition { tier = "retranslate" })
    end
  end

let record_block_exit t ~entry info =
  bump t.region_runs entry;
  (match info.Gb_vliw.Pipeline.kind with
  | Gb_vliw.Pipeline.Rollback ->
    bump t.region_rollbacks entry;
    consider_despeculation t entry
  | Gb_vliw.Pipeline.Side_exit ->
    bump t.region_side_exits entry;
    consider_retranslation t entry
  | Gb_vliw.Pipeline.Fallthrough -> ());
  match Pc_tbl.find_or t.block_meta entry ~default:None with
  | Some branch_pc -> (
    match info.Gb_vliw.Pipeline.kind with
    | Gb_vliw.Pipeline.Side_exit -> record_branch_outcome t branch_pc true
    | Gb_vliw.Pipeline.Fallthrough -> record_branch_outcome t branch_pc false
    | Gb_vliw.Pipeline.Rollback -> ())
  | None -> ()

(* Run the post-scheduling verifier over a translation about to be
   installed, record its findings (counters, events, the per-entry log)
   and return the report. Called for both tiers whenever verification is
   enabled; the caller decides what a violation means (report vs
   reject). *)
let note_verify t ~entry trace =
  let vr = Gb_obs.Sink.time t.obs "verify" (fun () ->
      Gb_verify.Verifier.verify trace)
  in
  t.stats.verify_checked <- t.stats.verify_checked + 1;
  let vs = vr.Gb_verify.Verifier.violations in
  if vs <> [] then begin
    t.stats.verify_violations <- t.stats.verify_violations + List.length vs;
    t.verify_log <-
      List.rev_append (List.map (fun v -> (entry, v)) vs) t.verify_log
  end;
  if Gb_obs.Sink.is_active t.obs then begin
    Gb_obs.Sink.incr t.obs "verify.checked";
    if vs <> [] then
      Gb_obs.Sink.incr t.obs ~by:(List.length vs) "verify.violations";
    List.iter
      (fun v ->
        Gb_obs.Sink.event t.obs ~pc:v.Gb_verify.Verifier.v_pc ~region:entry
          (Gb_obs.Event.Verify_violation
             {
               kind = Gb_verify.Verifier.kind_name v.Gb_verify.Verifier.v_kind;
               bundle = v.Gb_verify.Verifier.v_bundle;
             }))
      vs
  end;
  vr

let verify_log t = List.rev t.verify_log

(* a fenced retranslation that still fails verification (which would take
   a code-generator bug) aborts the translation; the entry is blacklisted
   and stays on the interpreter *)
exception Verify_rejected

(* The three translation entry points below ([translate_first_pass],
   [submit_prefetch], [translate]) are the only ways into the translation
   pipeline — promotion-triggered translations included, since
   record_block_entry goes through [translate] — so bracketing them with
   an exclusion window is a sound cut: a {!Gb_obs.Allocs} window around a
   processor run then counts only execution-tier allocation. Translation
   allocates freely by design (IR, DFG, scheduling) and would drown the
   number the hot loops are held to. *)
let excluded t f =
  Gb_obs.Allocs.pause t.allocs;
  Fun.protect ~finally:(fun () -> Gb_obs.Allocs.resume t.allocs) f

let translate_first_pass t entry =
  excluded t @@ fun () ->
  if Code_cache.peek t.cc entry <> None
     || Pc_tbl.mem t.fp_blacklist entry
     || translate_faulted t entry
  then ()
  else
    match
      Gb_obs.Sink.time t.obs "first_pass" (fun () ->
          First_pass.translate ~mem:t.mem ~entry)
    with
    | { First_pass.trace; branch_pc }
      when t.cfg.verify = Verify_enforce
           && not (Gb_verify.Verifier.ok (note_verify t ~entry trace)) ->
      (* structurally unreachable — first-pass blocks execute one op per
         bundle in program order — but the gate must not trust that *)
      ignore branch_pc;
      t.stats.verify_rejections <- t.stats.verify_rejections + 1;
      Gb_obs.Sink.incr t.obs "verify.rejections";
      Pc_tbl.replace t.fp_blacklist entry ()
    | { First_pass.trace; branch_pc } ->
      if t.cfg.verify = Verify_report then ignore (note_verify t ~entry trace);
      ignore
        (Code_cache.insert t.cc ~pc:entry ~tier:Code_cache.Block
           ~mode:Code_cache.Nonspec trace);
      (match Gb_obs.Sink.attrib t.obs with
      | Some a -> Gb_obs.Attrib.note_translation a ~entry Gb_obs.Attrib.Block
      | None -> ());
      Pc_tbl.replace t.block_meta entry branch_pc;
      t.stats.first_pass_translations <- t.stats.first_pass_translations + 1;
      Gb_obs.Sink.incr t.obs "translate.first_pass";
      Gb_obs.Sink.event t.obs ~pc:entry ~region:entry
        (Gb_obs.Event.Tier_transition { tier = "block" })
    | exception First_pass.Untranslatable _ ->
      Pc_tbl.replace t.fp_blacklist entry ()

let branch_profile t pc =
  match Pc_tbl.find_opt t.branch_total pc with
  | Some total -> Some (count t.branch_taken pc, total)
  | None -> None

let graph_meta g (report : Gb_core.Mitigation.report) =
  let spec_loads = ref 0 in
  let branch_spec_loads = ref 0 in
  Gb_ir.Dfg.iter_nodes g (fun n ->
      match Gb_ir.Dfg.spec_of n with
      | Some s ->
        if s.Gb_ir.Dfg.tag <> None then incr spec_loads;
        if s.Gb_ir.Dfg.spec_prev_branch <> None
           && not s.Gb_ir.Dfg.constrained
        then incr branch_spec_loads
      | None -> ());
  {
    Gb_vliw.Vinsn.spec_loads = !spec_loads;
    branch_spec_loads = !branch_spec_loads;
    spectre_patterns = report.Gb_core.Mitigation.patterns_found;
    constrained_loads = report.Gb_core.Mitigation.loads_constrained;
    fences_inserted = report.Gb_core.Mitigation.fences_inserted;
    cut_protects =
      (match report.Gb_core.Mitigation.cut_plan with
      | Some plan ->
        plan.Gb_core.Leakcut.dep_reinserts + plan.Gb_core.Leakcut.masks
      | None -> 0);
  }

(* ---- plan / backend / commit ---------------------------------------

   [translate] is split in three so the expensive middle can run on a
   worker domain (docs/CONCURRENCY.md):

   - {!plan_of} (owner only) reads the mutable profile state — guest
     memory via the trace builder, branch biases, the despeculation set —
     and freezes it into an immutable {!plan}.
   - {!backend} is a pure function of (config, plan): IR build,
     mitigation, scheduling, codegen, verification. It records every
     observability effect into the sink it is handed (a {!Gb_obs.Sink.buffer}
     when off-thread) and returns audit-ledger updates as data.
   - {!commit} (owner only) replays the recorded effects, absorbs the
     verifier reports into engine stats, applies the audit notes and
     installs the code — generation-tagged, so a stale install is
     structurally impossible.

   The synchronous path runs the same three stages back to back with the
   engine's own sink as the backend sink, which makes it line-for-line
   the pre-split code. *)

let plan_of t entry ~quiet =
  let profile pc = branch_profile t pc in
  let build () = Trace_builder.build t.cfg.trace_cfg ~mem:t.mem ~profile ~entry in
  match
    if quiet then build ()
    else Gb_obs.Sink.time t.obs "trace_build" build
  with
  | exception Trace_builder.Build_failure _ -> None
  | gtrace ->
    let branch_pcs =
      List.filter_map
        (fun st ->
          match st.Gb_ir.Gtrace.insn with
          | Gb_riscv.Insn.Branch _ -> Some st.Gb_ir.Gtrace.pc
          | _ -> None)
        gtrace.Gb_ir.Gtrace.steps
    in
    if not quiet then
      Gb_obs.Sink.event t.obs ~pc:entry ~region:entry
        (Gb_obs.Event.Trace_formed
           {
             guest_insns = Gb_ir.Gtrace.length gtrace;
             branches = List.length branch_pcs;
           });
    let opt =
      match t.cfg.opt_override with
      | Some opt -> opt
      | None -> Gb_core.Mitigation.opt_of_mode t.cfg.mode
    in
    let opt =
      if Pc_tbl.mem t.despeculated entry then
        { opt with Gb_ir.Opt_config.mem_spec = false; mcb_tags = 0 }
      else opt
    in
    Some { p_entry = entry; p_gtrace = gtrace; p_branch_pcs = branch_pcs;
           p_opt = opt }

let backend ~(cfg : config) ~audit_enabled bobs (p : plan) =
  let entry = p.p_entry in
  let gtrace = p.p_gtrace in
  let verify_reports = ref [] in
  let rejections = ref 0 in
  let notes = ref [] in
  (* the sink half of the old [note_verify]; the stats half is absorbed
     at commit from the returned report list *)
  let verify ?plan trace =
    let vr = Gb_obs.Sink.time bobs "verify" (fun () ->
        let vr = Gb_verify.Verifier.verify trace in
        (* cut-soundness pass: when the mitigation produced a leak-cut
           plan, independently prove on the emitted schedule that every
           planned repair landed and no residual source→transmitter path
           survives; its violations gate exactly like the sticky-taint
           verifier's *)
        match plan with
        | None -> vr
        | Some p ->
          { vr with
            Gb_verify.Verifier.violations =
              vr.Gb_verify.Verifier.violations
              @ Gb_verify.Verifier.check_cut trace ~plan:p })
    in
    verify_reports := vr :: !verify_reports;
    if Gb_obs.Sink.is_active bobs then begin
      Gb_obs.Sink.incr bobs "verify.checked";
      let vs = vr.Gb_verify.Verifier.violations in
      if vs <> [] then
        Gb_obs.Sink.incr bobs ~by:(List.length vs) "verify.violations";
      List.iter
        (fun v ->
          Gb_obs.Sink.event bobs ~pc:v.Gb_verify.Verifier.v_pc ~region:entry
            (Gb_obs.Event.Verify_violation
               {
                 kind = Gb_verify.Verifier.kind_name v.Gb_verify.Verifier.v_kind;
                 bundle = v.Gb_verify.Verifier.v_bundle;
               }))
        vs
    end;
    vr
  in
  let outcome =
    try
      let g =
        Gb_obs.Sink.time bobs "ir_build" (fun () ->
            Gb_ir.Build.build ~opt:p.p_opt ~lat:cfg.lat gtrace)
      in
      let report =
        Gb_obs.Sink.time bobs "poison_analysis" (fun () ->
            Gb_core.Mitigation.apply ~obs:bobs cfg.mode ~lat:cfg.lat g)
      in
      if audit_enabled then begin
        (* The leakage audit wants the detector's verdicts for this
           region: which loads ran speculatively, which the analysis
           flagged, which the mitigation actually constrained. The ledger
           itself is owner state, so record the updates as data. *)
        Gb_ir.Dfg.iter_nodes g (fun n ->
            match Gb_ir.Dfg.spec_of n with
            | Some s
              when s.Gb_ir.Dfg.tag <> None
                   || s.Gb_ir.Dfg.spec_prev_branch <> None
                   || s.Gb_ir.Dfg.constrained ->
              notes := Note_spec_load n.Gb_ir.Dfg.guest_pc :: !notes
            | Some _ | None -> ());
        List.iter
          (fun pc -> notes := Note_flagged pc :: !notes)
          report.Gb_core.Mitigation.flagged_pcs;
        (* Under Unsafe nothing flags or constrains, so detector
           precision would be unmeasurable: run the poisoning analysis
           once report-only (it never mutates the graph) to obtain the
           ground-truth flag set without changing the generated code. *)
        if cfg.mode = Gb_core.Mitigation.Unsafe then
          List.iter
            (fun id ->
              let pc = (Gb_ir.Dfg.node g id).Gb_ir.Dfg.guest_pc in
              notes := Note_unsafe_flagged pc :: !notes;
              Gb_obs.Sink.event bobs ~pc ~region:entry
                (Gb_obs.Event.Poison_flagged { node = id }))
            (Gb_core.Poison.analyze g).Gb_core.Poison.patterns
      end;
      let lower g report =
        let cycles =
          Gb_obs.Sink.time bobs "schedule" (fun () ->
              Sched.schedule ~obs:bobs cfg.resources ~lat:cfg.lat g)
        in
        let meta = graph_meta g report in
        Gb_obs.Sink.time bobs "codegen" (fun () ->
            Codegen.emit cfg.resources ~n_hidden:cfg.n_hidden ~cycles
              ~entry_pc:entry
              ~guest_insns:(Gb_ir.Gtrace.length gtrace)
              ~meta g)
      in
      let trace = lower g report in
      (* Install-time gate: the post-scheduling verifier re-derives
         the speculation-safety property from the emitted bundles.
         Under [Verify_enforce] a violating translation never reaches
         the code cache — it is rebuilt with speculation fenced
         entirely (and must then verify clean, or the entry is
         blacklisted). *)
      let trace, report, fenced =
        match cfg.verify with
        | Verify_off -> (trace, report, false)
        | (Verify_report | Verify_enforce) as lvl ->
          let vr = verify ?plan:report.Gb_core.Mitigation.cut_plan trace in
          if Gb_verify.Verifier.ok vr || lvl = Verify_report then
            (trace, report, false)
          else begin
            incr rejections;
            Gb_obs.Sink.incr bobs "verify.rejections";
            Gb_obs.Sink.event bobs ~pc:entry ~region:entry
              (Gb_obs.Event.Tier_transition { tier = "verify-fenced" });
            let g =
              Gb_obs.Sink.time bobs "ir_build" (fun () ->
                  Gb_ir.Build.build ~opt:Gb_ir.Opt_config.no_speculation
                    ~lat:cfg.lat gtrace)
            in
            let report =
              Gb_core.Mitigation.apply ~obs:bobs cfg.mode ~lat:cfg.lat g
            in
            let trace = lower g report in
            if
              not
                (Gb_verify.Verifier.ok
                   (verify ?plan:report.Gb_core.Mitigation.cut_plan trace))
            then raise Verify_rejected;
            (trace, report, true)
          end
      in
      Ok { b_trace = trace; b_report = report; b_fenced = fenced }
    with
    | Gb_ir.Build.Unsupported _ | Codegen.Out_of_registers | Sched.Cyclic
    | Verify_rejected ->
      Error ()
  in
  {
    b_outcome = outcome;
    b_verify = List.rev !verify_reports;
    b_rejections = !rejections;
    b_notes = List.rev !notes;
    b_obs = bobs;
  }

(* synchronous backend run: record straight into the engine's own sink
   (replay is then a no-op), which is exactly the pre-split behaviour *)
let run_backend t p =
  backend ~cfg:t.cfg ~audit_enabled:(t.audit <> None) t.obs p

let absorb_verify t ~entry vr =
  t.stats.verify_checked <- t.stats.verify_checked + 1;
  let vs = vr.Gb_verify.Verifier.violations in
  if vs <> [] then begin
    t.stats.verify_violations <- t.stats.verify_violations + List.length vs;
    t.verify_log <-
      List.rev_append (List.map (fun v -> (entry, v)) vs) t.verify_log
  end

let apply_audit_notes t notes =
  match t.audit with
  | None -> ()
  | Some a ->
    List.iter
      (fun note ->
        match note with
        | Note_spec_load pc -> Gb_cache.Audit.note_spec_load a ~pc
        | Note_flagged pc ->
          Gb_cache.Audit.note_flagged a ~pc;
          Gb_cache.Audit.note_constrained a ~pc
        | Note_unsafe_flagged pc -> Gb_cache.Audit.note_flagged a ~pc)
      notes

let translate_failed t entry =
  Pc_tbl.replace t.blacklist entry ();
  t.stats.failures <- t.stats.failures + 1;
  Gb_obs.Sink.incr t.obs "translate.failures";
  Gb_obs.Sink.event t.obs ~pc:entry ~region:entry
    (Gb_obs.Event.Translate_end { ok = false });
  None

let commit t ~gen (p : plan) (br : backend_result) =
  let entry = p.p_entry in
  let obs = t.obs in
  Gb_obs.Sink.replay br.b_obs ~into:obs;
  List.iter (absorb_verify t ~entry) br.b_verify;
  t.stats.verify_rejections <- t.stats.verify_rejections + br.b_rejections;
  apply_audit_notes t br.b_notes;
  match br.b_outcome with
  | Ok { b_trace = trace; b_report = report; b_fenced = fenced } ->
    let len = Gb_ir.Gtrace.length p.p_gtrace in
    (* de-speculated regions carry no speculative loads at all, so
       they are a safe chain target from any predecessor *)
    let mode =
      if fenced || Pc_tbl.mem t.despeculated entry then Code_cache.Nonspec
      else Code_cache.Mitigated t.cfg.mode
    in
    (match
       Code_cache.insert_tagged t.cc ~gen ~pc:entry ~tier:Code_cache.Trace
         ~mode trace
     with
    | Some _ -> ()
    | None ->
      (* unreachable: [gen] is captured on the owning domain at trigger
         time, and only the owning domain invalidates — nothing can have
         removed this pc between capture and install *)
      assert false);
    (* per-entry translation counts let attribution reports flag
       churny regions (retranslation/despeculation loops) *)
    (match Gb_obs.Sink.attrib obs with
    | Some a -> Gb_obs.Attrib.note_translation a ~entry Gb_obs.Attrib.Trace
    | None -> ());
    Pc_tbl.replace t.trace_branches entry p.p_branch_pcs;
    Pc_tbl.remove t.block_meta entry;
    let s = t.stats in
    s.translations <- s.translations + 1;
    s.guest_insns_translated <- s.guest_insns_translated + len;
    s.patterns_found <-
      s.patterns_found + report.Gb_core.Mitigation.patterns_found;
    s.loads_constrained <-
      s.loads_constrained + report.Gb_core.Mitigation.loads_constrained;
    s.fences_inserted <-
      s.fences_inserted + report.Gb_core.Mitigation.fences_inserted;
    s.spec_loads <-
      s.spec_loads + trace.Gb_vliw.Vinsn.meta.Gb_vliw.Vinsn.spec_loads;
    s.branch_spec_loads <-
      s.branch_spec_loads
      + trace.Gb_vliw.Vinsn.meta.Gb_vliw.Vinsn.branch_spec_loads;
    if Gb_obs.Sink.is_active obs then begin
      Gb_obs.Sink.incr obs "translate.translations";
      Gb_obs.Sink.incr obs ~by:len "translate.guest_insns";
      Gb_obs.Sink.observe obs "translate.trace_guest_insns" (float_of_int len);
      let meta = trace.Gb_vliw.Vinsn.meta in
      if meta.Gb_vliw.Vinsn.spec_loads > 0
         || meta.Gb_vliw.Vinsn.branch_spec_loads > 0
      then
        Gb_obs.Sink.event obs ~pc:entry ~region:entry
          (Gb_obs.Event.Load_hoisted
             {
               spec_loads = meta.Gb_vliw.Vinsn.spec_loads;
               past_branch = meta.Gb_vliw.Vinsn.branch_spec_loads;
             });
      Gb_obs.Sink.event obs ~pc:entry ~region:entry
        (Gb_obs.Event.Tier_transition { tier = "trace" });
      Gb_obs.Sink.event obs ~pc:entry ~region:entry
        (Gb_obs.Event.Translate_end { ok = true })
    end;
    Some trace
  | Error () -> translate_failed t entry

(* Speculative translation prefetch: a few arrivals before the hot
   threshold, freeze a quiet plan (no observability effects — the
   authoritative plan at trigger time emits them all) and start the
   backend on the pool. The fault-injection hook is deliberately NOT
   consulted here: it draws from a seeded RNG, and an extra draw would
   shift the fault stream relative to the synchronous schedule. *)
let prefetch_lookahead = 8

let submit_prefetch t pool entry =
  excluded t @@ fun () ->
  match plan_of t entry ~quiet:true with
  | None -> ()
  | Some p ->
    let cfg = t.cfg in
    let audit_enabled = t.audit <> None in
    let buffered = Gb_obs.Sink.is_active t.obs in
    let job () =
      let bobs = if buffered then Gb_obs.Sink.buffer () else Gb_obs.Sink.noop in
      backend ~cfg ~audit_enabled bobs p
    in
    (match Workers.try_submit pool job with
    | Some fut ->
      Pc_tbl.replace t.prefetch entry { pf_plan = p; pf_future = fut };
      Gb_obs.Sink.incr t.obs "workers.prefetch_submitted";
      Gb_obs.Sink.set_gauge t.obs "workers.queue_depth"
        (float_of_int (Workers.queue_depth pool))
    | None ->
      (* pool saturated: skip, the trigger will translate synchronously *)
      Gb_obs.Sink.incr t.obs "workers.queue_full")

let translate t entry =
  excluded t @@ fun () ->
  match Code_cache.peek t.cc entry with
  | Some e when e.Code_cache.e_tier = Code_cache.Trace ->
    Some e.Code_cache.e_trace
  | Some _ | None ->
    if Pc_tbl.mem t.blacklist entry || translate_faulted t entry then None
    else begin
      let pf = Pc_tbl.find_opt t.prefetch entry in
      Pc_tbl.remove t.prefetch entry;
      Gb_obs.Sink.event t.obs ~pc:entry ~region:entry
        Gb_obs.Event.Translate_start;
      match plan_of t entry ~quiet:false with
      | None -> translate_failed t entry
      | Some p ->
        let gen = Code_cache.generation t.cc in
        let br =
          match pf with
          | Some pf when pf.pf_plan = p ->
            (* The profile has not drifted since submission: the plans are
               structurally equal, and the backend is a pure function of
               (config, plan), so the prefetched result is the result the
               synchronous path would compute. Awaiting it (or stealing
               it, if no worker has started) is the only synchronous
               residue of this translation. *)
            Gb_obs.Sink.incr t.obs "workers.prefetch_hits";
            let br =
              Gb_obs.Sink.time t.obs "translate_await" (fun () ->
                  Workers.await pf.pf_future)
            in
            if Workers.stolen pf.pf_future then
              Gb_obs.Sink.incr t.obs "workers.stolen";
            br
          | Some _ ->
            (* plan drifted between submission and trigger (bias update,
               despeculation, guest code change): discard and redo *)
            Gb_obs.Sink.incr t.obs "workers.prefetch_stale";
            run_backend t p
          | None -> run_backend t p
        in
        commit t ~gen p br
    end

type region = {
  r_entry : int;
  r_tier : [ `Block | `Trace ];
  r_trace : Gb_vliw.Vinsn.trace;
  r_runs : int;
}

let regions t =
  let runs entry =
    count t.region_runs entry
  in
  List.sort
    (fun a b -> compare (b.r_runs, a.r_entry) (a.r_runs, b.r_entry))
    (List.map
       (fun e ->
         {
           r_entry = e.Code_cache.e_pc;
           r_tier =
             (match e.Code_cache.e_tier with
             | Code_cache.Block -> `Block
             | Code_cache.Trace -> `Trace);
           r_trace = e.Code_cache.e_trace;
           r_runs = runs e.Code_cache.e_pc;
         })
       (Code_cache.entries t.cc))

let record_block_entry t pc =
  Pc_tbl.incr t.hot pc;
  let n = count t.hot pc in
  if n >= t.cfg.hot_threshold
     && (not (has_trace t pc))
     && not (Pc_tbl.mem t.blacklist pc)
  then ignore (translate t pc)
  else begin
    (match t.pool with
    | Some pool
      when n = max 1 (t.cfg.hot_threshold - prefetch_lookahead)
           && n < t.cfg.hot_threshold
           && (not (has_trace t pc))
           && (not (Pc_tbl.mem t.blacklist pc))
           && not (Pc_tbl.mem t.prefetch pc) ->
      submit_prefetch t pool pc
    | Some _ | None -> ());
    if n >= t.cfg.first_pass_threshold && n < t.cfg.hot_threshold then
      translate_first_pass t pc
  end

(* Lazy chaining, QEMU-style: after the dispatcher has handled a trace
   exit (and possibly translated the successor), patch the taken stub to
   transfer directly next time. Everything that makes this safe lives in
   {!Code_cache.link}: tier and mitigation-mode compatibility, and the
   stub's own target_pc having to equal the successor's entry — so a
   stale [info] (the source retranslated since the exit) cannot create a
   wrong edge. Rollback stubs are never linked: MCB recovery must
   re-enter the dispatcher-visible path. *)
let chain t (info : Gb_vliw.Pipeline.exit_info) =
  if info.Gb_vliw.Pipeline.kind <> Gb_vliw.Pipeline.Rollback then
    match
      ( Code_cache.peek t.cc info.Gb_vliw.Pipeline.exit_entry,
        Code_cache.peek t.cc info.Gb_vliw.Pipeline.next_pc )
    with
    | Some src, Some dst ->
      ignore
        (Code_cache.link t.cc ~src ~stub:info.Gb_vliw.Pipeline.taken_stub ~dst)
    | _ -> ()

let chained_successor t (info : Gb_vliw.Pipeline.exit_info) =
  match
    ( Code_cache.peek t.cc info.Gb_vliw.Pipeline.exit_entry,
      Code_cache.find t.cc info.Gb_vliw.Pipeline.next_pc )
  with
  | Some src, Some dst when Code_cache.compatible ~src ~dst ->
    Some dst.Code_cache.e_trace
  | _ -> None
