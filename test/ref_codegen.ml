(* Reference model of the DBT's code generator: the original linear-scan
   hidden-register allocator (a polymorphic-compare sort by cycle and a
   list free list) and emitter, kept verbatim (names qualified) as the
   oracle that [Gb_dbt.Codegen.emit] must match bundle for bundle. *)

let produces_value = function
  | Gb_ir.Dfg.Kalu _ | Gb_ir.Dfg.Kload _ | Gb_ir.Dfg.Krdcycle -> true
  | Gb_ir.Dfg.Kstore _ | Gb_ir.Dfg.Kbranch _ | Gb_ir.Dfg.Kchk _
  | Gb_ir.Dfg.Kexit | Gb_ir.Dfg.Kcflush | Gb_ir.Dfg.Kfence ->
    false

(* Last cycle at which each node's value is read: by consumers' sources or
   by exit stubs (commit maps are read when the exit is taken). *)
let last_uses g cycles =
  let n = Gb_ir.Dfg.n_nodes g in
  let last = Array.make n (-1) in
  let use id at = if at > last.(id) then last.(id) <- at in
  Gb_ir.Dfg.iter_nodes g (fun node ->
      let at = cycles.(node.Gb_ir.Dfg.id) in
      Array.iter
        (fun v ->
          match v with
          | Gb_ir.Dfg.Node src -> use src at
          | Gb_ir.Dfg.Reg_in _ | Gb_ir.Dfg.Imm _ -> ())
        node.Gb_ir.Dfg.srcs;
      List.iter
        (fun (_, v) ->
          match v with
          | Gb_ir.Dfg.Node src -> use src at
          | Gb_ir.Dfg.Reg_in _ | Gb_ir.Dfg.Imm _ -> ())
        node.Gb_ir.Dfg.commit_map);
  last

(* Linear-scan allocation of hidden registers over issue cycles. A hidden
   register freed at cycle [u] can be redefined at any cycle >= u: the old
   value is read at the start of the cycle, the new write lands at its
   end. *)
let allocate_temps g cycles ~n_hidden =
  let n = Gb_ir.Dfg.n_nodes g in
  let last = last_uses g cycles in
  let temp = Array.make n (-1) in
  let by_cycle =
    List.sort
      (fun a b -> compare (cycles.(a), a) (cycles.(b), b))
      (List.init n (fun i -> i))
  in
  let free = ref [] in
  let next_fresh = ref 0 in
  let max_used = ref 0 in
  List.iter
    (fun id ->
      let node = Gb_ir.Dfg.node g id in
      if produces_value node.Gb_ir.Dfg.kind then begin
        let def_cycle = cycles.(id) in
        let reusable, still_busy =
          List.partition (fun (_, free_at) -> free_at <= def_cycle) !free
        in
        let t =
          match reusable with
          | (t, _) :: rest ->
            free := rest @ still_busy;
            t
          | [] ->
            free := still_busy;
            let t = !next_fresh in
            incr next_fresh;
            if t >= n_hidden then raise Gb_dbt.Codegen.Out_of_registers;
            t
        in
        temp.(id) <- t;
        max_used := max !max_used (t + 1);
        let free_at = max last.(id) def_cycle in
        free := (t, free_at + 1) :: !free
      end)
    by_cycle;
  (temp, !max_used)

let emit res ~n_hidden ~cycles ~entry_pc ~guest_insns ~meta g =
  let open Gb_vliw.Vinsn in
  let temp, temps_used = allocate_temps g cycles ~n_hidden in
  let reg_of id = guest_regs + temp.(id) in
  let operand_of = function
    | Gb_ir.Dfg.Node id -> R (reg_of id)
    | Gb_ir.Dfg.Reg_in r -> R r
    | Gb_ir.Dfg.Imm v -> I v
  in
  (* exit stubs, indexed in node order *)
  let stub_index = Hashtbl.create 16 in
  let stubs = ref [] in
  let n_stubs = ref 0 in
  Gb_ir.Dfg.iter_nodes g (fun node ->
      if Gb_ir.Dfg.is_exit_like node.Gb_ir.Dfg.kind then begin
        let commits =
          List.filter_map
            (fun (r, v) ->
              match v with
              | Gb_ir.Dfg.Reg_in r' when r' = r -> None
              | v -> Some (r, operand_of v))
            node.Gb_ir.Dfg.commit_map
        in
        Hashtbl.add stub_index node.Gb_ir.Dfg.id !n_stubs;
        stubs :=
          make_stub ~exit_id:node.Gb_ir.Dfg.id ~commits
            ~target_pc:node.Gb_ir.Dfg.exit_pc ()
          :: !stubs;
        incr n_stubs
      end);
  let stubs = Array.of_list (List.rev !stubs) in
  let op_of node =
    let id = node.Gb_ir.Dfg.id in
    let src k = operand_of node.Gb_ir.Dfg.srcs.(k) in
    match node.Gb_ir.Dfg.kind with
    | Gb_ir.Dfg.Kalu op -> Alu { op; dst = reg_of id; a = src 0; b = src 1 }
    | Gb_ir.Dfg.Kload (w, unsigned, spec) ->
      Load
        {
          w;
          unsigned;
          dst = reg_of id;
          base = src 0;
          off = node.Gb_ir.Dfg.off;
          spec = spec.Gb_ir.Dfg.tag;
          id;
          pc = node.Gb_ir.Dfg.guest_pc;
          (* a constrained load is pinned below its guards: it executes
             architecturally, so it must not seed runtime/verifier taint
             (same definition as the engine's branch_spec_loads meta) *)
          hoisted =
            spec.Gb_ir.Dfg.spec_prev_branch <> None
            && not spec.Gb_ir.Dfg.constrained;
        }
    | Gb_ir.Dfg.Kstore w ->
      Store
        {
          w;
          src = src 0;
          base = src 1;
          off = node.Gb_ir.Dfg.off;
          id;
          pc = node.Gb_ir.Dfg.guest_pc;
        }
    | Gb_ir.Dfg.Kbranch cond ->
      Branch { cond; a = src 0; b = src 1; stub = Hashtbl.find stub_index id }
    | Gb_ir.Dfg.Kchk load_id -> (
      let load = Gb_ir.Dfg.node g load_id in
      match Gb_ir.Dfg.spec_of load with
      | Some { Gb_ir.Dfg.tag = Some tag; _ } ->
        Chk { tag; stub = Hashtbl.find stub_index id }
      | Some _ | None ->
        (* the guarded load was de-speculated by the mitigation: the
           check can never fire *)
        Nop)
    | Gb_ir.Dfg.Kexit -> Exit { stub = Hashtbl.find stub_index id }
    | Gb_ir.Dfg.Krdcycle -> Rdcycle { dst = reg_of id }
    | Gb_ir.Dfg.Kcflush ->
      Cflush
        { base = src 0; off = node.Gb_ir.Dfg.off; id; pc = node.Gb_ir.Dfg.guest_pc }
    | Gb_ir.Dfg.Kfence -> Fence
  in
  let n_cycles = 1 + Array.fold_left max 0 cycles in
  let slots_used = Array.make n_cycles 0 in
  let bundles = Array.init n_cycles (fun _ -> Array.make res.Gb_dbt.Sched.width Nop) in
  Gb_ir.Dfg.iter_nodes g (fun node ->
      let c = cycles.(node.Gb_ir.Dfg.id) in
      let slot = slots_used.(c) in
      if slot >= res.Gb_dbt.Sched.width then
        invalid_arg "Codegen.emit: over-full bundle (scheduler bug)";
      bundles.(c).(slot) <- op_of node;
      slots_used.(c) <- slot + 1);
  {
    entry_pc;
    bundles;
    stubs;
    n_regs = guest_regs + temps_used;
    guest_insns;
    meta;
  }
