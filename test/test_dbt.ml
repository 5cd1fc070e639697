(* Tests for the DBT engine: trace construction against a profiled binary,
   the list scheduler's edge/resource guarantees (property-tested over
   random traces), and code generation invariants. *)

let lat = Gb_ir.Latency.default

let res = Gb_dbt.Sched.default_resources

(* --- trace construction ------------------------------------------------ *)

let assemble_loop () =
  (* a loop whose body conditionally skips a store, plus an exit path *)
  let open Gb_riscv in
  let open Gb_riscv.Insn in
  Asm.assemble
    [
      Asm.Label "loop";
      Asm.Insn (Op_imm (ANDI, Reg.t0, Reg.s2, 1));
      Asm.Branch_to (BNE, Reg.t0, Reg.zero, "skip");
      Asm.Insn (Store (D, Reg.s2, Reg.sp, -16));
      Asm.Label "skip";
      Asm.Insn (Op_imm (ADDI, Reg.s2, Reg.s2, 1));
      Asm.Branch_to (BLT, Reg.s2, Reg.s1, "loop");
      Asm.Insn Ecall;
    ]

let load_into_mem program =
  let mem = Gb_riscv.Mem.create ~size:(1 lsl 16) in
  Gb_riscv.Asm.load mem program;
  mem

let trace_follows_bias () =
  let program = assemble_loop () in
  let mem = load_into_mem program in
  let skip_branch = Gb_riscv.Asm.symbol program "loop" + 4 in
  let back_branch = Gb_riscv.Asm.symbol program "skip" + 4 in
  (* profile: skip-branch never taken, back-branch always taken *)
  let profile pc =
    if pc = skip_branch then Some (0, 100)
    else if pc = back_branch then Some (100, 100)
    else None
  in
  let t =
    Gb_dbt.Trace_builder.build Gb_dbt.Trace_builder.default_config ~mem
      ~profile
      ~entry:(Gb_riscv.Asm.symbol program "loop")
  in
  (* the loop unrolls up to the revisit limit *)
  let visits =
    List.length
      (List.filter
         (fun s -> s.Gb_ir.Gtrace.pc = Gb_riscv.Asm.symbol program "loop")
         t.Gb_ir.Gtrace.steps)
  in
  Alcotest.(check int) "unrolled to the visit limit"
    Gb_dbt.Trace_builder.default_config.Gb_dbt.Trace_builder.max_visits visits;
  (* stores are in the trace (biased not-taken skip) *)
  let has_store =
    List.exists
      (fun s ->
        match s.Gb_ir.Gtrace.insn with
        | Gb_riscv.Insn.Store _ -> true
        | _ -> false)
      t.Gb_ir.Gtrace.steps
  in
  Alcotest.(check bool) "store included" true has_store

let trace_stops_at_unbiased () =
  let program = assemble_loop () in
  let mem = load_into_mem program in
  let skip_branch = Gb_riscv.Asm.symbol program "loop" + 4 in
  let profile pc = if pc = skip_branch then Some (50, 100) else None in
  let t =
    Gb_dbt.Trace_builder.build Gb_dbt.Trace_builder.default_config ~mem
      ~profile
      ~entry:(Gb_riscv.Asm.symbol program "loop")
  in
  Alcotest.(check int) "stops before the unbiased branch" 1
    (Gb_ir.Gtrace.length t);
  Alcotest.(check int) "falls back at the branch" skip_branch
    t.Gb_ir.Gtrace.fall_pc

let trace_stops_at_ecall () =
  let open Gb_riscv in
  let program =
    Asm.assemble [ Asm.Insn (Insn.Op_imm (Insn.ADDI, Reg.t0, Reg.t0, 1)); Asm.Insn Insn.Ecall ]
  in
  let mem = load_into_mem program in
  let t =
    Gb_dbt.Trace_builder.build Gb_dbt.Trace_builder.default_config ~mem
      ~profile:(fun _ -> None) ~entry:program.Asm.entry
  in
  Alcotest.(check int) "one instruction" 1 (Gb_ir.Gtrace.length t);
  Alcotest.(check int) "ends before ecall" (program.Asm.entry + 4)
    t.Gb_ir.Gtrace.fall_pc

let empty_trace_fails () =
  let open Gb_riscv in
  let program = Asm.assemble [ Asm.Insn Insn.Ecall ] in
  let mem = load_into_mem program in
  Alcotest.check_raises "empty trace"
    (Gb_dbt.Trace_builder.Build_failure "empty trace") (fun () ->
      ignore
        (Gb_dbt.Trace_builder.build Gb_dbt.Trace_builder.default_config ~mem
           ~profile:(fun _ -> None) ~entry:program.Asm.entry))

(* --- scheduler --------------------------------------------------------- *)

(* reuse the random guest-trace generator idea from the IR tests *)
let arb_gtrace =
  let open QCheck.Gen in
  let reg = int_range 1 15 in
  let gen_step pc =
    let open Gb_riscv.Insn in
    frequency
      [
        (4, map3 (fun rd rs1 rs2 -> Op (ADD, rd, rs1, rs2)) reg reg reg);
        (2, map3 (fun rd rs1 rs2 -> Op (MUL, rd, rs1, rs2)) reg reg reg);
        (1, map3 (fun rd rs1 rs2 -> Op (DIV, rd, rs1, rs2)) reg reg reg);
        (2, map2 (fun rd rs1 -> Load (D, false, rd, rs1, 0)) reg reg);
        (2, map2 (fun rs2 rs1 -> Store (D, rs2, rs1, 0)) reg reg);
        (1, return (Rdcycle 5));
        (2, map2 (fun rs1 rs2 -> Branch (BEQ, rs1, rs2, 64)) reg reg);
      ]
    >|= fun insn ->
    let exit_cond =
      match insn with
      | Branch (cond, _, _, off) -> Some (cond, pc + off)
      | _ -> None
    in
    { Gb_ir.Gtrace.pc; insn; exit_cond }
  in
  let* n = int_range 1 50 in
  let* steps = flatten_l (List.init n (fun i -> gen_step (0x1000 + (4 * i)))) in
  return { Gb_ir.Gtrace.entry = 0x1000; steps; fall_pc = 0x1000 + (4 * n) }

let arb_mode = QCheck.Gen.oneofl Gb_core.Mitigation.all_modes

let build_and_schedule (trace, mode) =
  let opt = Gb_core.Mitigation.opt_of_mode mode in
  let g = Gb_ir.Build.build ~opt ~lat trace in
  let _ = Gb_core.Mitigation.apply mode ~lat g in
  let cycles = Gb_dbt.Sched.schedule res ~lat g in
  (g, cycles)

let schedule_respects_edges_prop =
  QCheck.Test.make ~count:400 ~name:"schedule respects every edge"
    (QCheck.make QCheck.Gen.(pair arb_gtrace arb_mode))
    (fun input ->
      let g, cycles = build_and_schedule input in
      List.for_all
        (fun e ->
          cycles.(e.Gb_ir.Dfg.e_to)
          >= cycles.(e.Gb_ir.Dfg.e_from) + e.Gb_ir.Dfg.e_lat)
        (Gb_ir.Dfg.edges g))

let schedule_respects_resources_prop =
  QCheck.Test.make ~count:400 ~name:"schedule respects resource limits"
    (QCheck.make QCheck.Gen.(pair arb_gtrace arb_mode))
    (fun input ->
      let g, cycles = build_and_schedule input in
      let n_cycles = 1 + Array.fold_left max 0 cycles in
      let total = Array.make n_cycles 0 in
      let mem = Array.make n_cycles 0 in
      let mul = Array.make n_cycles 0 in
      let branch = Array.make n_cycles 0 in
      Gb_ir.Dfg.iter_nodes g (fun node ->
          let c = cycles.(node.Gb_ir.Dfg.id) in
          total.(c) <- total.(c) + 1;
          match Gb_dbt.Sched.classify node.Gb_ir.Dfg.kind with
          | Gb_dbt.Sched.Mem_class -> mem.(c) <- mem.(c) + 1
          | Gb_dbt.Sched.Mul_class -> mul.(c) <- mul.(c) + 1
          | Gb_dbt.Sched.Branch_class -> branch.(c) <- branch.(c) + 1
          | Gb_dbt.Sched.Alu_class -> ());
      let ok = ref true in
      for c = 0 to n_cycles - 1 do
        if total.(c) > res.Gb_dbt.Sched.width
           || mem.(c) > res.Gb_dbt.Sched.mem_slots
           || mul.(c) > res.Gb_dbt.Sched.mul_slots
           || branch.(c) > res.Gb_dbt.Sched.branch_slots
        then ok := false
      done;
      !ok)

let exit_scheduled_last_prop =
  QCheck.Test.make ~count:200 ~name:"trace exit is scheduled last"
    (QCheck.make QCheck.Gen.(pair arb_gtrace arb_mode))
    (fun input ->
      let g, cycles = build_and_schedule input in
      let exit_id = ref (-1) in
      Gb_ir.Dfg.iter_nodes g (fun n ->
          match n.Gb_ir.Dfg.kind with
          | Gb_ir.Dfg.Kexit -> exit_id := n.Gb_ir.Dfg.id
          | _ -> ());
      let last = Array.fold_left max 0 cycles in
      cycles.(!exit_id) = last)

(* --- codegen ----------------------------------------------------------- *)

let emit (trace, mode) =
  let opt = Gb_core.Mitigation.opt_of_mode mode in
  let g = Gb_ir.Build.build ~opt ~lat trace in
  let _ = Gb_core.Mitigation.apply mode ~lat g in
  let cycles = Gb_dbt.Sched.schedule res ~lat g in
  Gb_dbt.Codegen.emit res ~n_hidden:96 ~cycles ~entry_pc:trace.Gb_ir.Gtrace.entry
    ~guest_insns:(Gb_ir.Gtrace.length trace)
    ~meta:Gb_vliw.Vinsn.empty_meta g

let codegen_invariants_prop =
  QCheck.Test.make ~count:300 ~name:"codegen: width, one control op, stubs"
    (QCheck.make QCheck.Gen.(pair arb_gtrace arb_mode))
    (fun input ->
      let t = emit input in
      let ok = ref true in
      Array.iter
        (fun bundle ->
          if Array.length bundle <> res.Gb_dbt.Sched.width then ok := false;
          let controls =
            Array.to_list bundle
            |> List.filter (fun op ->
                   match op with
                   | Gb_vliw.Vinsn.Branch _ | Gb_vliw.Vinsn.Chk _
                   | Gb_vliw.Vinsn.Exit _ ->
                     true
                   | _ -> false)
          in
          if List.length controls > 1 then ok := false)
        t.Gb_vliw.Vinsn.bundles;
      (* the final bundle carries the unconditional exit *)
      let last = t.Gb_vliw.Vinsn.bundles.(Array.length t.Gb_vliw.Vinsn.bundles - 1) in
      let has_exit =
        Array.exists
          (fun op -> match op with Gb_vliw.Vinsn.Exit _ -> true | _ -> false)
          last
      in
      (* stubs only commit architectural registers *)
      Array.iter
        (fun stub ->
          List.iter
            (fun (r, _) ->
              if r < 1 || r >= Gb_vliw.Vinsn.guest_regs then ok := false)
            stub.Gb_vliw.Vinsn.commits)
        t.Gb_vliw.Vinsn.stubs;
      !ok && has_exit)

let register_pressure_failure () =
  (* with almost no hidden registers, codegen must refuse rather than emit
     wrong code *)
  let open Gb_riscv.Insn in
  let steps =
    List.init 30 (fun i ->
        { Gb_ir.Gtrace.pc = 0x1000 + (4 * i);
          insn = Op (ADD, 1 + (i mod 15), 1, 2);
          exit_cond = None })
  in
  let trace = { Gb_ir.Gtrace.entry = 0x1000; steps; fall_pc = 0x1000 + 120 } in
  let g = Gb_ir.Build.build ~opt:Gb_ir.Opt_config.aggressive ~lat trace in
  let cycles = Gb_dbt.Sched.schedule res ~lat g in
  Alcotest.check_raises "out of registers" Gb_dbt.Codegen.Out_of_registers
    (fun () ->
      ignore
        (Gb_dbt.Codegen.emit res ~n_hidden:1 ~cycles ~entry_pc:0x1000
           ~guest_insns:30 ~meta:Gb_vliw.Vinsn.empty_meta g))

(* --- trace-level differential oracle ------------------------------------ *)

(* Compile a random guest trace to VLIW and execute it; separately run the
   golden interpreter over the same instruction bytes from the same
   initial state until it leaves the trace's pc range. Architectural
   registers, memory and the resume pc must agree for every mitigation
   mode. (rdcycle/cflush are excluded: the clock differs by construction.) *)

let arb_oracle_trace =
  let open QCheck.Gen in
  (* destinations never overlap the address bases, so load/store addresses
     stay inside the data region for both executions *)
  let reg = int_range 1 8 in
  let src = int_range 1 15 in
  let base = int_range 9 15 in
  let gen_step pc =
    let open Gb_riscv.Insn in
    frequency
      [
        (5, map3 (fun rd rs1 rs2 -> Op (ADD, rd, rs1, rs2)) reg src src);
        (2, map3 (fun rd rs1 rs2 -> Op (MUL, rd, rs1, rs2)) reg src src);
        (2, map3 (fun rd rs1 rs2 -> Op (XOR, rd, rs1, rs2)) reg src src);
        (1, map3 (fun rd rs1 rs2 -> Op (DIVU, rd, rs1, rs2)) reg src src);
        (2, map3 (fun rd rs1 imm -> Op_imm (ANDI, rd, rs1, imm)) reg src
             (int_range 0 255));
        (2, map2 (fun rd rs1 -> Load (D, false, rd, rs1, 0)) reg base);
        (1, map2 (fun rd rs1 -> Load (B, true, rd, rs1, 0)) reg base);
        (2, map2 (fun rs2 rs1 -> Store (D, rs2, rs1, 0)) src base);
        (2, map2 (fun rs1 rs2 -> Branch (BEQ, rs1, rs2, 512)) src src);
        (1, map2 (fun rs1 rs2 -> Branch (BLT, rs1, rs2, 512)) src src);
      ]
    >|= fun insn ->
    let exit_cond =
      match insn with
      | Branch (cond, _, _, off) -> Some (cond, pc + off)
      | _ -> None
    in
    { Gb_ir.Gtrace.pc; insn; exit_cond }
  in
  let* n = int_range 1 40 in
  let* steps = flatten_l (List.init n (fun i -> gen_step (0x1000 + (4 * i)))) in
  let* seeds = list_size (return 15) (int_range 0 2047) in
  let* mode = oneofl Gb_core.Mitigation.all_modes in
  return ({ Gb_ir.Gtrace.entry = 0x1000; steps; fall_pc = 0x1000 + (4 * n) },
          seeds, mode)

let trace_oracle_prop =
  QCheck.Test.make ~count:300 ~name:"trace execution = interpreter (oracle)"
    (QCheck.make arb_oracle_trace)
    (fun (gtrace, seeds, mode) ->
      let mem_size = 1 lsl 16 in
      (* data region for the random base registers: aligned, in range *)
      let init_regs = Array.make 128 0L in
      List.iteri
        (fun i s -> init_regs.(i + 1) <- Int64.of_int (0x4000 + (8 * s)))
        seeds;
      (* write the instruction bytes *)
      let make_mem () =
        let mem = Gb_riscv.Mem.create ~size:mem_size in
        List.iter
          (fun st ->
            Gb_riscv.Mem.store mem ~addr:st.Gb_ir.Gtrace.pc ~size:4
              (Int64.of_int (Gb_riscv.Encode.encode st.Gb_ir.Gtrace.insn)))
          gtrace.Gb_ir.Gtrace.steps;
        mem
      in
      (* oracle: the reference interpreter until it leaves the trace *)
      let interp_mem = make_mem () in
      let interp_regs = Array.copy init_regs in
      let interp =
        Gb_riscv.Interp.create ~regs:interp_regs ~mem:interp_mem ~pc:0x1000 ()
      in
      let lo = gtrace.Gb_ir.Gtrace.entry and hi = gtrace.Gb_ir.Gtrace.fall_pc in
      let rec run_interp budget =
        if budget = 0 then failwith "oracle ran away"
        else if interp.Gb_riscv.Interp.pc < lo || interp.Gb_riscv.Interp.pc >= hi
        then interp.Gb_riscv.Interp.pc
        else begin
          ignore (Gb_riscv.Interp.step interp);
          run_interp (budget - 1)
        end
      in
      let oracle_pc = run_interp 1000 in
      (* device under test: build, mitigate, schedule, emit, execute *)
      let opt = Gb_core.Mitigation.opt_of_mode mode in
      let g = Gb_ir.Build.build ~opt ~lat gtrace in
      let _ = Gb_core.Mitigation.apply mode ~lat g in
      let cycles = Gb_dbt.Sched.schedule res ~lat g in
      let trace =
        Gb_dbt.Codegen.emit res ~n_hidden:96 ~cycles ~entry_pc:0x1000
          ~guest_insns:(Gb_ir.Gtrace.length gtrace)
          ~meta:Gb_vliw.Vinsn.empty_meta g
      in
      let vliw_mem = make_mem () in
      let hier = Gb_cache.Hierarchy.create Gb_cache.Hierarchy.default_config in
      let clock = ref 0L in
      let vliw_regs = Array.copy init_regs in
      let machine =
        Gb_vliw.Machine.create ~mem:vliw_mem ~hier ~clock ~regs:vliw_regs ()
      in
      (* a rollback exits mid-trace at a pc inside the range: finish the
         remainder on the interpreter semantics, as the real system does *)
      let rec settle budget pc =
        if pc < lo || pc >= hi then pc
        else if budget = 0 then failwith "settle ran away"
        else begin
          let fixup =
            Gb_riscv.Interp.create ~regs:vliw_regs ~mem:vliw_mem ~pc ()
          in
          ignore (Gb_riscv.Interp.step fixup);
          settle (budget - 1) fixup.Gb_riscv.Interp.pc
        end
      in
      let first_exit = (Gb_vliw.Pipeline.run machine trace).Gb_vliw.Pipeline.next_pc in
      let vliw_pc = settle 1000 first_exit in
      let regs_agree =
        List.for_all
          (fun r -> Int64.equal interp_regs.(r) vliw_regs.(r))
          (List.init 31 (fun i -> i + 1))
      in
      let mem_agree =
        Gb_riscv.Mem.read_bytes interp_mem ~addr:0x4000 ~len:0x5000
        = Gb_riscv.Mem.read_bytes vliw_mem ~addr:0x4000 ~len:0x5000
      in
      oracle_pc = vliw_pc && regs_agree && mem_agree)

(* --- first-level translation -------------------------------------------- *)

let first_pass_machine () =
  let mem = Gb_riscv.Mem.create ~size:(1 lsl 16) in
  let hier = Gb_cache.Hierarchy.create Gb_cache.Hierarchy.default_config in
  let clock = ref 0L in
  (mem, Gb_vliw.Machine.create ~mem ~hier ~clock ())

let first_pass_straight_line () =
  let open Gb_riscv in
  let program =
    Asm.assemble
      [
        Asm.Insn (Insn.Op_imm (Insn.ADDI, Reg.t0, Reg.zero, 5));
        Asm.Insn (Insn.Op_imm (Insn.ADDI, Reg.t1, Reg.t0, 7));
        Asm.Insn (Insn.Op (Insn.MUL, Reg.t2, Reg.t0, Reg.t1));
        Asm.Insn Insn.Ecall;
      ]
  in
  let mem, machine = first_pass_machine () in
  Asm.load mem program;
  let { Gb_dbt.First_pass.trace; branch_pc } =
    Gb_dbt.First_pass.translate ~mem ~entry:program.Asm.entry
  in
  Alcotest.(check (option int)) "no terminal branch" None branch_pc;
  Alcotest.(check int) "one op per insn plus exit" 4
    (Array.length trace.Gb_vliw.Vinsn.bundles);
  let info = Gb_vliw.Pipeline.run machine trace in
  Alcotest.(check int) "exits before the ecall" (program.Asm.entry + 12)
    info.Gb_vliw.Pipeline.next_pc;
  (* guest registers written directly, no stub needed *)
  Alcotest.(check int64) "t2 = 5 * 12" 60L machine.Gb_vliw.Machine.regs.(Reg.t2)

let first_pass_branch_block () =
  let open Gb_riscv in
  let program =
    Asm.assemble
      [
        Asm.Insn (Insn.Op_imm (Insn.ADDI, Reg.t0, Reg.t0, 1));
        Asm.Insn (Insn.Branch (Insn.BLT, Reg.t0, Reg.t1, 64));
        Asm.Insn Insn.Ecall;
      ]
  in
  let mem, machine = first_pass_machine () in
  Asm.load mem program;
  let { Gb_dbt.First_pass.trace; branch_pc } =
    Gb_dbt.First_pass.translate ~mem ~entry:program.Asm.entry
  in
  Alcotest.(check (option int)) "terminal branch recorded"
    (Some (program.Asm.entry + 4)) branch_pc;
  (* taken path: t0 < t1 *)
  machine.Gb_vliw.Machine.regs.(Reg.t1) <- 100L;
  let info = Gb_vliw.Pipeline.run machine trace in
  Alcotest.(check int) "taken target" (program.Asm.entry + 4 + 64)
    info.Gb_vliw.Pipeline.next_pc;
  Alcotest.(check bool) "taken = side exit" true
    (info.Gb_vliw.Pipeline.kind = Gb_vliw.Pipeline.Side_exit);
  (* fall-through path *)
  machine.Gb_vliw.Machine.regs.(Reg.t1) <- -100L;
  let info = Gb_vliw.Pipeline.run machine trace in
  Alcotest.(check int) "fall-through target" (program.Asm.entry + 8)
    info.Gb_vliw.Pipeline.next_pc;
  Alcotest.(check bool) "fall-through kind" true
    (info.Gb_vliw.Pipeline.kind = Gb_vliw.Pipeline.Fallthrough)

let first_pass_untranslatable () =
  let open Gb_riscv in
  let program = Asm.assemble [ Asm.Insn Insn.Ecall ] in
  let mem, _ = first_pass_machine () in
  Asm.load mem program;
  Alcotest.check_raises "ecall at entry"
    (Gb_dbt.First_pass.Untranslatable "block starts with jalr/ecall")
    (fun () ->
      ignore (Gb_dbt.First_pass.translate ~mem ~entry:program.Asm.entry))

(* Property: a first-pass block and the interpreter agree on registers and
   memory over random straight-line code. *)
let first_pass_differential_prop =
  let arb =
    QCheck.make
      QCheck.Gen.(
        pair
          (list_size (int_range 1 30)
             (oneof
                [
                  map3
                    (fun op rd (rs1, rs2) -> Gb_riscv.Insn.Op (op, rd, rs1, rs2))
                    (oneofl Gb_riscv.Insn.[ ADD; SUB; XOR; MUL; AND; OR ])
                    (int_range 1 8)
                    (pair (int_range 1 15) (int_range 1 15));
                  map2
                    (fun rd base -> Gb_riscv.Insn.Load (Gb_riscv.Insn.D, false, rd, base, 0))
                    (int_range 1 8) (int_range 9 15);
                  map2
                    (fun src base -> Gb_riscv.Insn.Store (Gb_riscv.Insn.D, src, base, 0))
                    (int_range 1 15) (int_range 9 15);
                ]))
          (list_size (return 15) (int_range 0 1023)))
  in
  QCheck.Test.make ~count:200 ~name:"first-pass = interpreter" arb
    (fun (insns, seeds) ->
      let program =
        Gb_riscv.Asm.assemble
          (List.map (fun i -> Gb_riscv.Asm.Insn i) insns
          @ [ Gb_riscv.Asm.Insn Gb_riscv.Insn.Ecall ])
      in
      let init_regs = Array.make 128 0L in
      List.iteri
        (fun i s -> init_regs.(i + 1) <- Int64.of_int (0x4000 + (8 * s)))
        seeds;
      let setup () =
        let mem = Gb_riscv.Mem.create ~size:(1 lsl 16) in
        Gb_riscv.Asm.load mem program;
        (mem, Array.copy init_regs)
      in
      (* interpreter *)
      let imem, iregs = setup () in
      let interp =
        Gb_riscv.Interp.create ~regs:iregs ~mem:imem ~pc:program.Gb_riscv.Asm.entry ()
      in
      List.iter (fun _ -> ignore (Gb_riscv.Interp.step interp)) insns;
      (* first-pass block *)
      let vmem, vregs = setup () in
      let hier = Gb_cache.Hierarchy.create Gb_cache.Hierarchy.default_config in
      let clock = ref 0L in
      let machine = Gb_vliw.Machine.create ~mem:vmem ~hier ~clock ~regs:vregs () in
      let { Gb_dbt.First_pass.trace; _ } =
        Gb_dbt.First_pass.translate ~mem:vmem ~entry:program.Gb_riscv.Asm.entry
      in
      let info = Gb_vliw.Pipeline.run machine trace in
      info.Gb_vliw.Pipeline.next_pc = interp.Gb_riscv.Interp.pc
      && List.for_all
           (fun r -> Int64.equal iregs.(r) vregs.(r))
           (List.init 31 (fun i -> i + 1))
      && Gb_riscv.Mem.read_bytes imem ~addr:0x4000 ~len:0x3000
         = Gb_riscv.Mem.read_bytes vmem ~addr:0x4000 ~len:0x3000)

(* Property: first-pass blocks never contain speculative loads or hidden
   registers — the tier is Spectre-free by construction. *)
let first_pass_never_speculates_prop =
  let arb =
    QCheck.make
      QCheck.Gen.(
        list_size (int_range 1 20)
          (oneof
             [
               map3
                 (fun rd rs1 imm -> Gb_riscv.Insn.Op_imm (Gb_riscv.Insn.ADDI, rd, rs1, imm))
                 (int_range 1 31) (int_range 0 31) (int_range (-100) 100);
               map2
                 (fun rd rs1 -> Gb_riscv.Insn.Load (Gb_riscv.Insn.D, false, rd, rs1, 0))
                 (int_range 1 31) (int_range 0 31);
               map2
                 (fun rs2 rs1 -> Gb_riscv.Insn.Store (Gb_riscv.Insn.D, rs2, rs1, 0))
                 (int_range 0 31) (int_range 0 31);
             ]))
  in
  QCheck.Test.make ~count:200 ~name:"first-pass blocks never speculate" arb
    (fun insns ->
      let program =
        Gb_riscv.Asm.assemble
          (List.map (fun i -> Gb_riscv.Asm.Insn i) insns
          @ [ Gb_riscv.Asm.Insn Gb_riscv.Insn.Ecall ])
      in
      let mem = Gb_riscv.Mem.create ~size:(1 lsl 16) in
      Gb_riscv.Asm.load mem program;
      let { Gb_dbt.First_pass.trace; _ } =
        Gb_dbt.First_pass.translate ~mem ~entry:program.Gb_riscv.Asm.entry
      in
      trace.Gb_vliw.Vinsn.n_regs = Gb_vliw.Vinsn.guest_regs
      && Array.for_all
           (fun bundle ->
             Array.for_all
               (fun op ->
                 match op with
                 | Gb_vliw.Vinsn.Load { spec = Some _; _ }
                 | Gb_vliw.Vinsn.Chk _ ->
                   false
                 | _ -> true)
               bundle)
           trace.Gb_vliw.Vinsn.bundles)

(* --- engine ------------------------------------------------------------ *)

let engine_tier_precedence () =
  (* once a pc has both a first-level block and an optimized trace, lookup
     must serve the optimized one *)
  let program = assemble_loop () in
  let mem = load_into_mem program in
  let engine = Gb_dbt.Engine.create Gb_dbt.Engine.default_config ~mem in
  let entry = Gb_riscv.Asm.symbol program "loop" in
  (* warm: first-level only *)
  for _ = 1 to 5 do
    Gb_dbt.Engine.record_block_entry engine entry
  done;
  let block = Gb_dbt.Engine.lookup engine entry in
  Alcotest.(check bool) "block tier serves" true (block <> None);
  Alcotest.(check int) "single-op bundles" 1
    (Array.length (Option.get block).Gb_vliw.Vinsn.bundles.(0));
  (* hot: optimized trace replaces it *)
  ignore (Gb_dbt.Engine.translate engine entry);
  let trace = Gb_dbt.Engine.lookup engine entry in
  Alcotest.(check bool) "optimized tier serves" true
    ((Option.get trace).Gb_vliw.Vinsn.bundles.(0) |> Array.length > 1)

let engine_caches_and_blacklists () =
  let program = assemble_loop () in
  let mem = load_into_mem program in
  let engine = Gb_dbt.Engine.create Gb_dbt.Engine.default_config ~mem in
  let entry = Gb_riscv.Asm.symbol program "loop" in
  let skip_branch = entry + 4 in
  (* without profile data the trace stops at the first branch — still a
     valid 1-instruction trace *)
  ignore (Gb_dbt.Engine.translate engine entry);
  Alcotest.(check bool) "cached" true (Gb_dbt.Engine.lookup engine entry <> None);
  (* a pc pointing at an ecall cannot be translated and gets blacklisted *)
  let ecall_pc = Gb_riscv.Asm.symbol program "skip" + 8 in
  Alcotest.(check bool) "ecall not translatable" true
    (Gb_dbt.Engine.translate engine ecall_pc = None);
  Alcotest.(check int) "failure recorded" 1
    (Gb_dbt.Engine.stats engine).Gb_dbt.Engine.failures;
  ignore skip_branch

(* --- reference equivalence ---------------------------------------------- *)

(* [Sched.schedule] and [Codegen.emit]'s register allocator were rewritten
   for speed; test/ref_sched.ml and test/ref_codegen.ml keep the original
   algorithms verbatim. The rewrite must reproduce every issue cycle and
   every emitted bundle, hidden-register numbers included: a 96-register
   file, and a 12-register one that forces reuse and, on larger traces,
   [Out_of_registers] on both sides. *)
let matches_reference mode gtrace =
  let g = Gb_ir.Build.build ~opt:(Gb_core.Mitigation.opt_of_mode mode) ~lat gtrace in
  ignore (Gb_core.Mitigation.apply mode ~lat g);
  let cycles = Gb_dbt.Sched.schedule res ~lat g in
  let ref_cycles = Ref_sched.schedule res ~lat g in
  let emit_with emit n_hidden =
    match
      emit res ~n_hidden ~cycles:ref_cycles ~entry_pc:gtrace.Gb_ir.Gtrace.entry
        ~guest_insns:(Gb_ir.Gtrace.length gtrace) ~meta:Gb_vliw.Vinsn.empty_meta g
    with
    | t -> Some t
    | exception Gb_dbt.Codegen.Out_of_registers -> None
  in
  cycles = ref_cycles
  && List.for_all
       (fun n_hidden ->
         emit_with Gb_dbt.Codegen.emit n_hidden = emit_with Ref_codegen.emit n_hidden)
       [ 96; 12 ]

let reference_equivalence_prop =
  QCheck.Test.make ~count:400
    ~name:"schedule and codegen = reference models, all five modes"
    (QCheck.make arb_gtrace)
    (fun gtrace ->
      List.for_all (fun mode -> matches_reference mode gtrace)
        Gb_core.Mitigation.all_modes)

(* Every region the workloads install as a trace, in every mode, rebuilt
   through the public translation phases from the run's final branch
   profile. *)
let reference_equivalence_workloads () =
  let programs =
    List.map
      (fun w -> (w.Gb_workloads.Polybench.name, w.Gb_workloads.Polybench.program))
      (Gb_workloads.Polybench.matmul_ptr :: Gb_workloads.Polybench.all)
    @ [
        ("spectre-v1", Gb_attack.Spectre_v1.program ~secret:"ABC" ());
        ("spectre-v4", Gb_attack.Spectre_v4.program ~secret:"ABC" ());
      ]
  in
  let checked = ref 0 in
  List.iter
    (fun (name, program) ->
      let asm = Gb_kernelc.Compile.assemble program in
      List.iter
        (fun mode ->
          let proc =
            Gb_system.Processor.create
              ~config:(Gb_system.Processor.config_for mode) asm
          in
          ignore (Gb_system.Processor.run proc);
          let engine = Gb_system.Processor.engine proc in
          List.iter
            (fun r ->
              if r.Gb_dbt.Engine.r_tier = `Trace then
                match
                  Gb_dbt.Trace_builder.build Gb_dbt.Trace_builder.default_config
                    ~mem:(Gb_system.Processor.mem proc)
                    ~profile:(Gb_dbt.Engine.branch_profile engine)
                    ~entry:r.Gb_dbt.Engine.r_entry
                with
                | exception Gb_dbt.Trace_builder.Build_failure _ -> ()
                | gtrace ->
                  incr checked;
                  if not (matches_reference mode gtrace) then
                    Alcotest.failf "%s/%s: trace at 0x%x differs from the reference"
                      name (Gb_core.Mitigation.mode_name mode)
                      r.Gb_dbt.Engine.r_entry)
            (Gb_dbt.Engine.regions engine))
        Gb_core.Mitigation.all_modes)
    programs;
  Alcotest.(check bool) "traces checked" true (!checked > 500)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "dbt"
    [
      ( "trace-builder",
        [
          Alcotest.test_case "follows bias and unrolls" `Quick trace_follows_bias;
          Alcotest.test_case "stops at unbiased branch" `Quick
            trace_stops_at_unbiased;
          Alcotest.test_case "stops at ecall" `Quick trace_stops_at_ecall;
          Alcotest.test_case "empty trace fails" `Quick empty_trace_fails;
        ] );
      ( "scheduler",
        [
          qt schedule_respects_edges_prop;
          qt schedule_respects_resources_prop;
          qt exit_scheduled_last_prop;
        ] );
      ("oracle", [ qt trace_oracle_prop ]);
      ( "reference",
        [
          qt reference_equivalence_prop;
          Alcotest.test_case "installed workload traces" `Quick
            reference_equivalence_workloads;
        ] );
      ( "codegen",
        [
          qt codegen_invariants_prop;
          Alcotest.test_case "register pressure failure" `Quick
            register_pressure_failure;
        ] );
      ( "first-pass",
        [
          Alcotest.test_case "straight line" `Quick first_pass_straight_line;
          Alcotest.test_case "branch block" `Quick first_pass_branch_block;
          Alcotest.test_case "untranslatable" `Quick first_pass_untranslatable;
          qt first_pass_never_speculates_prop;
          qt first_pass_differential_prop;
        ] );
      ( "engine",
        [
          Alcotest.test_case "caching and blacklisting" `Quick
            engine_caches_and_blacklists;
          Alcotest.test_case "tier precedence" `Quick engine_tier_precedence;
        ] );
    ]
