type config = {
  max_insns : int;
  max_visits : int;
  bias_threshold : float;
  min_samples : int;
}

let default_config =
  { max_insns = 96; max_visits = 4; bias_threshold = 0.8; min_samples = 8 }

exception Build_failure of string

type direction = Follow_fall | Follow_taken | Unbiased

let branch_direction cfg profile pc =
  match profile pc with
  | None -> Unbiased
  | Some (taken, total) ->
    if total < cfg.min_samples then Unbiased
    else
      let ratio = float_of_int taken /. float_of_int total in
      if ratio >= cfg.bias_threshold then Follow_taken
      else if ratio <= 1. -. cfg.bias_threshold then Follow_fall
      else Unbiased

let build cfg ~mem ~profile ~entry =
  let visits = Gb_util.Pc_tbl.create 64 in
  let steps = ref [] in
  let count = ref 0 in
  let push step =
    steps := step :: !steps;
    incr count
  in
  let rec walk pc =
    if !count >= cfg.max_insns then pc
    else
      let v = Gb_util.Pc_tbl.find_or visits pc ~default:0 in
      if v >= cfg.max_visits then pc
      else begin
        Gb_util.Pc_tbl.replace visits pc (v + 1);
        match Gb_riscv.Decode.decode (Gb_riscv.Mem.load_insn_word mem ~addr:pc) with
        | exception Gb_riscv.Decode.Illegal _ -> pc
        | exception Gb_riscv.Mem.Fault _ -> pc
        | insn -> (
          match insn with
          | Gb_riscv.Insn.Ecall | Gb_riscv.Insn.Jalr _ -> pc
          | Gb_riscv.Insn.Jal (rd, off) ->
            if rd <> 0 then
              push { Gb_ir.Gtrace.pc; insn; exit_cond = None };
            walk (pc + off)
          | Gb_riscv.Insn.Branch (cond, _, _, off) -> (
            match branch_direction cfg profile pc with
            | Unbiased -> pc
            | Follow_fall ->
              push
                { Gb_ir.Gtrace.pc; insn; exit_cond = Some (cond, pc + off) };
              walk (pc + 4)
            | Follow_taken ->
              push
                {
                  Gb_ir.Gtrace.pc;
                  insn;
                  exit_cond = Some (Gb_riscv.Insn.negate_cond cond, pc + 4);
                };
              walk (pc + off))
          | Gb_riscv.Insn.Op_imm _ | Gb_riscv.Insn.Op _ | Gb_riscv.Insn.Lui _
          | Gb_riscv.Insn.Auipc _ | Gb_riscv.Insn.Load _
          | Gb_riscv.Insn.Store _ | Gb_riscv.Insn.Fence
          | Gb_riscv.Insn.Rdcycle _ | Gb_riscv.Insn.Cflush _ ->
            push { Gb_ir.Gtrace.pc; insn; exit_cond = None };
            walk (pc + 4))
      end
  in
  let fall_pc = walk entry in
  if !count = 0 then raise (Build_failure "empty trace")
  else { Gb_ir.Gtrace.entry; steps = List.rev !steps; fall_pc }
