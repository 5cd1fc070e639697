(* The traced run: the processor's dispatch loop, driven from outside
   through public calls, with every call into a layer timed on the
   monotonic clock. It must reproduce [Processor.run] bit for bit (exit
   code, cycles, guest instructions); the benchmark checks that.

   Spans live in a flat in-memory store and are written out after the
   run. A call counts as translation when the engine's translation
   counters moved during it. Consecutive sibling calls of the same layer
   (chained transfers inside one pipeline pass, for instance) are
   coalesced into one span that records how many calls it covers. *)

module E = Gb_dbt.Engine
module P = Gb_system.Processor

let now () = Int64.to_int (Monotonic_clock.now ())

(* span names *)
let s_run = 0
let s_interp = 1
let s_dispatch = 2
let s_pipeline = 3
let s_chain = 4
let s_translate = 5
let names = [| "run"; "interp"; "dispatch"; "pipeline"; "chain"; "translate" |]

(* one record = [stride] ints: name, start, stop, parent, count, busy *)
let stride = 6

type store = { mutable len : int; mutable a : int array }

let create_store () = { len = 0; a = Array.make (stride * 4096) 0 }

let push st name t0 t1 parent =
  if (st.len + 1) * stride > Array.length st.a then begin
    let b = Array.make (2 * Array.length st.a) 0 in
    Array.blit st.a 0 b 0 (st.len * stride);
    st.a <- b
  end;
  let o = st.len * stride in
  st.a.(o) <- name;
  st.a.(o + 1) <- t0;
  st.a.(o + 2) <- t1;
  st.a.(o + 3) <- parent;
  st.a.(o + 4) <- 1;
  st.a.(o + 5) <- (if t1 < 0 then 0 else t1 - t0);
  st.len <- st.len + 1;
  st.len - 1

let open_span st name parent t0 = push st name t0 (-1) parent

let close_span st id t1 =
  let o = id * stride in
  st.a.(o + 2) <- t1;
  st.a.(o + 5) <- t1 - st.a.(o + 1)

(* a finished call with no children: merged into the previous record
   when that is a finished sibling of the same layer *)
let leaf st name parent t0 t1 =
  let o = (st.len - 1) * stride in
  if st.len > 0 && st.a.(o) = name && st.a.(o + 3) = parent && st.a.(o + 2) >= 0
  then begin
    st.a.(o + 2) <- t1;
    st.a.(o + 4) <- st.a.(o + 4) + 1;
    st.a.(o + 5) <- st.a.(o + 5) + (t1 - t0)
  end
  else ignore (push st name t0 t1 parent)

(* Self time per span name: busy time minus the busy time of direct
   children. Indexed like [names]. *)
let self_times st =
  let child = Array.make st.len 0 in
  for i = 0 to st.len - 1 do
    let p = st.a.((i * stride) + 3) in
    if p >= 0 then child.(p) <- child.(p) + st.a.((i * stride) + 5)
  done;
  let self = Array.make (Array.length names) 0 in
  for i = 0 to st.len - 1 do
    let n = st.a.(i * stride) in
    self.(n) <- self.(n) + st.a.((i * stride) + 5) - child.(i)
  done;
  self

(* JSON lines: one object per span *)
let write oc ~run ~label st =
  for i = 0 to st.len - 1 do
    let o = i * stride in
    Printf.fprintf oc
      "{\"run\":%d,\"cell\":%S,\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"calls\":%d,\"busy_ns\":%d}\n"
      run label i names.(st.a.(o)) st.a.(o + 1) st.a.(o + 2) st.a.(o + 3) st.a.(o + 4)
      st.a.(o + 5)
  done

type result = {
  exit_code : int;
  cycles : int64;
  guest_insns : int64;
  exits : int;  (** trace exits handled by the dispatch loop *)
  wall_ns : int;
  spans : store;
}

(* Mirrors [Processor.run] for a processor built without fault injection
   or cycle attribution. *)
let run ~max_cycles proc =
  let engine = P.engine proc and interp = P.interp proc and machine = P.machine proc in
  let obs = P.obs proc in
  let st = create_store () in
  let es = E.stats engine in
  let tcount () = es.E.translations + es.E.first_pass_translations + es.E.failures in
  let clock = interp.Gb_riscv.Interp.clock in
  let pipeline_span = ref (-1) in
  let dead_end = ref false in
  let resolve = machine.Gb_vliw.Machine.on_chain in
  machine.Gb_vliw.Machine.on_chain <-
    (fun info ->
      let c0 = tcount () in
      let t0 = now () in
      let next = resolve info in
      let t1 = now () in
      leaf st (if tcount () <> c0 then s_translate else s_chain) !pipeline_span t0 t1;
      if Option.is_none next then dead_end := true;
      next);
  (* record_block_entry may translate: time it so translation is split
     out of the caller's layer *)
  let entry parent pc =
    let c0 = tcount () in
    let t0 = now () in
    E.record_block_entry engine pc;
    if tcount () <> c0 then leaf st s_translate parent t0 (now ())
  in
  let t_start = now () in
  let root = open_span st s_run (-1) t_start in
  entry root interp.Gb_riscv.Interp.pc;
  let burst = ref (-1) in
  let exits = ref 0 in
  let rec loop () =
    if Int64.compare !clock max_cycles > 0 then
      raise (Gb_riscv.Interp.Trap "cycle watchdog exceeded");
    let pc = interp.Gb_riscv.Interp.pc in
    let t0 = now () in
    match E.lookup engine pc with
    | Some trace ->
      if !burst >= 0 then begin
        close_span st !burst t0;
        burst := -1
      end;
      let d = open_span st s_dispatch root t0 in
      let p = open_span st s_pipeline d (now ()) in
      pipeline_span := p;
      let info = Gb_vliw.Pipeline.run machine trace in
      close_span st p (now ());
      interp.Gb_riscv.Interp.pc <- info.Gb_vliw.Pipeline.next_pc;
      incr exits;
      Gb_obs.Sink.incr obs "processor.dispatch_exits";
      if !dead_end then dead_end := false
      else begin
        E.record_block_exit engine ~entry:info.Gb_vliw.Pipeline.exit_entry info;
        entry d info.Gb_vliw.Pipeline.next_pc
      end;
      E.chain engine info;
      close_span st d (now ());
      loop ()
    | None -> (
      if !burst < 0 then burst := open_span st s_interp root t0;
      let si = Gb_riscv.Interp.step interp in
      (match (si.Gb_riscv.Interp.s_insn, si.Gb_riscv.Interp.s_taken) with
      | Gb_riscv.Insn.Branch _, Some taken ->
        E.record_branch engine ~pc:si.Gb_riscv.Interp.s_pc ~taken
      | _, _ -> ());
      if si.Gb_riscv.Interp.s_next <> si.Gb_riscv.Interp.s_pc + 4 then
        entry !burst si.Gb_riscv.Interp.s_next;
      match si.Gb_riscv.Interp.s_exit with
      | Some code ->
        let t1 = now () in
        close_span st !burst t1;
        close_span st root t1;
        code
      | None -> loop ())
  in
  let exit_code = loop () in
  {
    exit_code;
    cycles = !clock;
    guest_insns =
      Int64.add interp.Gb_riscv.Interp.insn_count
        (Int64.of_int machine.Gb_vliw.Machine.stats.Gb_vliw.Machine.guest_insns);
    exits = !exits;
    wall_ns = now () - t_start;
    spans = st;
  }

let meta_of g (report : Gb_core.Mitigation.report) =
  let spec = ref 0 and branch_spec = ref 0 in
  Gb_ir.Dfg.iter_nodes g (fun n ->
      match Gb_ir.Dfg.spec_of n with
      | Some s ->
        if s.Gb_ir.Dfg.tag <> None then incr spec;
        if s.Gb_ir.Dfg.spec_prev_branch <> None && not s.Gb_ir.Dfg.constrained then
          incr branch_spec
      | None -> ());
  {
    Gb_vliw.Vinsn.spec_loads = !spec;
    branch_spec_loads = !branch_spec;
    spectre_patterns = report.Gb_core.Mitigation.patterns_found;
    constrained_loads = report.Gb_core.Mitigation.loads_constrained;
    fences_inserted = report.Gb_core.Mitigation.fences_inserted;
    cut_protects =
      (match report.Gb_core.Mitigation.cut_plan with
      | Some plan -> plan.Gb_core.Leakcut.dep_reinserts + plan.Gb_core.Leakcut.masks
      | None -> 0);
  }

(* Per-phase translation cost, replayed after a run: every installed
   region goes back through the public phases. A replay counts only when
   it rebuilds a translation of the installed size (the branch profile
   has moved on since, so some traces come out different). *)
let phases =
  [| "first_pass"; "trace_build"; "ir_build"; "mitigation"; "schedule"; "codegen"; "verify" |]

type replay = { phase_ns : int array; replayed : int array; regions : int array }
(* [replayed]/[regions] are indexed by tier: 0 = first-pass block, 1 = trace *)

let empty_replay () =
  { phase_ns = Array.make (Array.length phases) 0; replayed = [| 0; 0 |]; regions = [| 0; 0 |] }

let replay (config : P.config) proc acc =
  let engine = P.engine proc in
  let ec = config.P.engine in
  let mem = P.mem proc in
  let opt =
    match ec.E.opt_override with
    | Some o -> o
    | None -> Gb_core.Mitigation.opt_of_mode ec.E.mode
  in
  let entries = config.P.machine.Gb_vliw.Machine.mcb_entries in
  let opt =
    if entries <= 0 then { opt with Gb_ir.Opt_config.mem_spec = false; mcb_tags = 0 }
    else if opt.Gb_ir.Opt_config.mcb_tags > entries then { opt with Gb_ir.Opt_config.mcb_tags = entries }
    else opt
  in
  let lat = ec.E.lat in
  let ns = Array.make (Array.length phases) 0 in
  let timed i f =
    let t0 = now () in
    let r = f () in
    ns.(i) <- ns.(i) + (now () - t0);
    r
  in
  List.iter
    (fun (r : E.region) ->
      Array.fill ns 0 (Array.length ns) 0;
      let want = Gb_vliw.Vinsn.bundle_count r.E.r_trace in
      let tier = match r.E.r_tier with `Block -> 0 | `Trace -> 1 in
      acc.regions.(tier) <- acc.regions.(tier) + 1;
      let got =
        try
          match r.E.r_tier with
          | `Block ->
            let fp = timed 0 (fun () -> Gb_dbt.First_pass.translate ~mem ~entry:r.E.r_entry) in
            Gb_vliw.Vinsn.bundle_count fp.Gb_dbt.First_pass.trace
          | `Trace ->
            let gt =
              timed 1 (fun () ->
                  Gb_dbt.Trace_builder.build ec.E.trace_cfg ~mem ~profile:(E.branch_profile engine)
                    ~entry:r.E.r_entry)
            in
            let g = timed 2 (fun () -> Gb_ir.Build.build ~opt ~lat gt) in
            let report = timed 3 (fun () -> Gb_core.Mitigation.apply ec.E.mode ~lat g) in
            let cycles = timed 4 (fun () -> Gb_dbt.Sched.schedule ec.E.resources ~lat g) in
            let meta = meta_of g report in
            let trace =
              timed 5 (fun () ->
                  Gb_dbt.Codegen.emit ec.E.resources ~n_hidden:ec.E.n_hidden ~cycles
                    ~entry_pc:r.E.r_entry ~guest_insns:(Gb_ir.Gtrace.length gt) ~meta g)
            in
            timed 6 (fun () ->
                ignore (Gb_verify.Verifier.verify trace);
                match report.Gb_core.Mitigation.cut_plan with
                | Some plan -> ignore (Gb_verify.Verifier.check_cut trace ~plan)
                | None -> ());
            Gb_vliw.Vinsn.bundle_count trace
        with
        | Gb_dbt.First_pass.Untranslatable _ | Gb_dbt.Trace_builder.Build_failure _
        | Gb_ir.Build.Unsupported _ | Gb_dbt.Codegen.Out_of_registers | Gb_dbt.Sched.Cyclic ->
          -1
      in
      if got = want then begin
        acc.replayed.(tier) <- acc.replayed.(tier) + 1;
        Array.iteri (fun i x -> acc.phase_ns.(i) <- acc.phase_ns.(i) + x) ns
      end)
    (E.regions engine)
