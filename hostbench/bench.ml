(* Host-performance benchmark of the GhostBusters simulator.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
     bench.exe --self-test

   Three workloads each load a different layer (see README.md). With
   --trace 0 the benchmark times repeated, interleaved runs of every
   program x mode cell for S seconds and prints the end-to-end metrics;
   with --trace 1 it drives the dispatch loop itself (Tracer) and prints
   the per-layer split. Every run is one operation, checked against
   expected values computed by Refeval, never by the simulator. The last
   line of stdout is the JSON result. *)

module M = Gb_core.Mitigation
module P = Gb_system.Processor
module E = Gb_dbt.Engine

let now = Tracer.now

(* ---- configuration: every knob pinned, nothing read from the environment *)

let capacity_default = 65536
let capacity_small = 4096

let config ?(capacity = capacity_default) ~verify mode =
  let d = P.default_config in
  {
    d with
    P.machine = { d.P.machine with Gb_vliw.Machine.chain = true };
    engine =
      {
        E.default_config with
        E.mode;
        workers = 0;
        verify;
        opt_override = None;
        cache = { Gb_dbt.Code_cache.capacity; chain = true };
      };
  }

let no_inject () = Gb_system.Inject.create []

let verify_name = function
  | E.Verify_off -> "off"
  | E.Verify_report -> "report"
  | E.Verify_enforce -> "enforce"

let describe_config (c : P.config) =
  let e = c.P.engine and m = c.P.machine in
  Printf.sprintf
    "workers=%d chain=%b capacity=%d verify=%s hot=%d first_pass=%d mcb=%d chain_fuel=%d inject=none mem=%d"
    e.E.workers e.E.cache.Gb_dbt.Code_cache.chain e.E.cache.Gb_dbt.Code_cache.capacity
    (verify_name e.E.verify) e.E.hot_threshold e.E.first_pass_threshold m.Gb_vliw.Machine.mcb_entries
    m.Gb_vliw.Machine.chain_fuel c.P.mem_size

(* ---- cells: one program under one mode *)

type job =
  | Plain of Gb_kernelc.Ast.program  (** Processor.run, noop sink, no audit *)
  | Poc of Gb_kernelc.Ast.program * string  (** Runner.run with audit; the secret *)
  | Oracle of Gb_kernelc.Ast.program  (** Oracle.run with an active sink *)

type cell = {
  prog : string;
  mode : M.mode;
  job : job;
  config : P.config;
  expect : int * string;  (** exit code and output; unused by PoCs *)
  main : bool;  (** counted in the simulated metrics *)
}

let label c =
  Printf.sprintf "%s/%s%s" c.prog (M.mode_name c.mode) (if c.main then "" else "/small-cache")

let ast_of c = match c.job with Plain a | Poc (a, _) | Oracle a -> a

type outcome = {
  setup_ns : int;
  run_ns : int;
  insns : int64;
  cycles : int64;
  ok : bool;
  leaked : int;
  why : string;
}

let failed why = { setup_ns = 0; run_ns = 0; insns = 0L; cycles = 0L; ok = false; leaked = 0; why }

let expect_ok c (r : P.result) =
  if (r.P.exit_code, r.P.output) = c.expect then ""
  else
    Printf.sprintf "exit %d output %S, expected exit %d output %S" r.P.exit_code r.P.output
      (fst c.expect) (snd c.expect)

let sink () = Gb_obs.Sink.create ~seed:1L ()

(* the observers a cell's processor is built with: the PoCs run with the
   leakage audit and an active sink, the oracle with an active sink *)
let audited c = match c.job with Poc _ -> true | Plain _ | Oracle _ -> false

let obs_for c = match c.job with Plain _ -> Gb_obs.Sink.noop | Poc _ | Oracle _ -> sink ()

let setup c ~obs ~audit =
  let asm = Gb_kernelc.Compile.assemble (ast_of c) in
  let p = P.create ~config:c.config ~obs ~audit ~inject:(no_inject ()) asm in
  (asm, p)

let run_cell c =
  Gc.full_major ();
  try
    match c.job with
    | Plain _ ->
      let t0 = now () in
      let _, p = setup c ~obs:Gb_obs.Sink.noop ~audit:false in
      let t1 = now () in
      let r = P.run p in
      let t2 = now () in
      let why = expect_ok c r in
      { setup_ns = t1 - t0; run_ns = t2 - t1; insns = r.P.guest_insns; cycles = r.P.cycles;
        ok = why = ""; leaked = 0; why }
    | Poc (ast, secret) ->
      let obs = sink () in
      let t0 = now () in
      ignore (setup c ~obs ~audit:(audited c));
      let t1 = now () in
      let o = Gb_attack.Runner.run ~config:c.config ~audit:true ~seed:1L ~mode:c.mode ~secret ast in
      let t2 = now () in
      let r = o.Gb_attack.Runner.result in
      let fn =
        match r.P.audit with Some a -> a.Gb_cache.Audit.false_negatives | None -> -1
      in
      let leaked = if c.mode = M.Unsafe then 0 else o.Gb_attack.Runner.correct_bytes in
      let why =
        if c.mode = M.Unsafe then
          if Gb_attack.Runner.succeeded o then "" else "unsafe PoC did not recover the secret"
        else if leaked > 0 then Printf.sprintf "%d secret bytes leaked" leaked
        else if fn <> 0 then Printf.sprintf "audit false negatives = %d" fn
        else ""
      in
      { setup_ns = t1 - t0; run_ns = t2 - t1; insns = r.P.guest_insns; cycles = r.P.cycles;
        ok = why = ""; leaked; why }
    | Oracle _ ->
      let obs = sink () and run_obs = sink () in
      let t0 = now () in
      let asm, _ = setup c ~obs ~audit:false in
      let t1 = now () in
      let rep = Gb_diff.Oracle.run ~config:c.config ~obs:run_obs ~inject:[] asm in
      let t2 = now () in
      let why, insns, cycles =
        match rep.Gb_diff.Oracle.dbt_result with
        | _ when not (Gb_diff.Oracle.clean rep) -> ("oracle report not clean", 0L, 0L)
        | None -> ("oracle: DBT run trapped", 0L, 0L)
        | Some r -> (expect_ok c r, r.P.guest_insns, r.P.cycles)
      in
      { setup_ns = t1 - t0; run_ns = t2 - t1; insns; cycles; ok = why = ""; leaked = 0; why }
  with e -> failed (Printexc.to_string e)

(* ---- workloads *)

type scale = Full | Tiny

let workload_names = [ "hot-kernels"; "translate-storm"; "audit-oracle" ]

let four_modes = [ M.Unsafe; M.Fine_grained; M.Min_cut; M.Fence_on_detect ]

let expected ast = Refeval.run ast

let plain_cells ?(verify = E.Verify_off) progs =
  List.concat_map
    (fun (prog, ast) ->
      let expect = expected ast in
      List.map
        (fun mode ->
          { prog; mode; job = Plain ast; config = config ~verify mode; expect; main = true })
        four_modes)
    progs

(* hot-kernels: three Polybench shapes scaled to ~2.3M guest
   instructions per run, under the four modes, verify off *)
let hot_kernels scale seed =
  let n, jn, steps = match scale with Full -> (44, 46, 8) | Tiny -> (6, 8, 1) in
  plain_cells
    [
      ("gemm", Gen.gemm ~seed n);
      ("jacobi-2d", Gen.jacobi2d ~seed:(seed + 1) jn steps);
      ("matmul-ptr", Gen.matmul_ptr ~seed:(seed + 2) n);
    ]

(* translate-storm: generated programs of many distinct loops run just
   past the hot threshold, under Verify_enforce, plus one pass per
   program at a capacity that evicts *)
let storm_programs = 2

let storm_iters = 30

let translate_storm scale seed =
  let loops = match scale with Full -> 400 | Tiny -> 12 in
  let progs =
    List.init storm_programs (fun i ->
        (Printf.sprintf "storm%d" i, Gen.storm ~seed:((seed * storm_programs) + i) ~loops ~iters:storm_iters))
  in
  let verify = E.Verify_enforce in
  plain_cells ~verify progs
  @ List.map
      (fun (prog, ast) ->
        { prog; mode = M.Fine_grained; job = Plain ast; main = false; expect = expected ast;
          config = config ~capacity:capacity_small ~verify M.Fine_grained })
      progs

(* audit-oracle: the Spectre v1/v4 PoCs under all five modes with the
   leakage audit, and the differential oracle over matmul-ptr and the
   mini Polybench set under fine-grained and min-cut *)
let secret_of seed len =
  let rng = Prng.create seed in
  String.init len (fun _ ->
      let k = Prng.int rng 52 in
      Char.chr (if k < 26 then Char.code 'A' + k else Char.code 'a' + k - 26))

let audit_oracle scale seed =
  let len, kernels =
    match scale with
    | Full -> (6, Gb_workloads.Polybench.matmul_ptr :: Gb_workloads.Polybench.all)
    | Tiny -> (2, [ Gb_workloads.Polybench.matmul_ptr ])
  in
  let secret = secret_of seed len in
  let pocs =
    List.concat_map
      (fun (prog, ast) ->
        List.map
          (fun mode ->
            { prog; mode; job = Poc (ast, secret); config = config ~verify:E.Verify_off mode;
              expect = (0, ""); main = true })
          M.all_modes)
      [
        ("spectre-v1", Gb_attack.Spectre_v1.program ~secret ());
        ("spectre-v4", Gb_attack.Spectre_v4.program ~secret ());
      ]
  in
  let oracles =
    List.concat_map
      (fun (k : Gb_workloads.Polybench.t) ->
        let expect = expected k.Gb_workloads.Polybench.program in
        List.map
          (fun mode ->
            { prog = k.Gb_workloads.Polybench.name; mode; job = Oracle k.Gb_workloads.Polybench.program;
              config = config ~verify:E.Verify_off mode; expect; main = true })
          [ M.Fine_grained; M.Min_cut ])
      kernels
  in
  pocs @ oracles

let cells_of scale name seed =
  match name with
  | "hot-kernels" -> hot_kernels scale seed
  | "translate-storm" -> translate_storm scale seed
  | "audit-oracle" -> audit_oracle scale seed
  | _ -> invalid_arg ("unknown workload " ^ name)

(* ---- statistics *)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> 0.
  | s ->
    let a = Array.of_list s and n = List.length s in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* "n=.. median=.. pXX=..": pXX is the highest percentile, counted from
   the good end, with at least ten samples beyond it on the bad end *)
let describe_samples ~higher_better xs =
  let n = List.length xs in
  let tail =
    if n < 11 then "no percentile has 10 samples beyond it"
    else
      let a = Array.of_list (if higher_better then List.rev (sorted xs) else sorted xs) in
      let k = n - 11 in
      Printf.sprintf "p%d=%.6g" (100 * (k + 1) / n) a.(k)
  in
  Printf.sprintf "n=%d median=%.6g %s samples=[%s]" n (median xs) tail
    (String.concat " " (List.map (Printf.sprintf "%.4g") xs))

let ratio a b = if b = 0. then 0. else a /. b

let geomean = function
  | [] -> 0.
  | xs -> exp (List.fold_left (fun s x -> s +. log x) 0. xs /. float_of_int (List.length xs))

(* ---- output *)

type metric = { name : string; value : float; unit_ : string }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed body

(* ---- timed runs (--trace 0) *)

type tally = { mutable attempted : int; mutable failures : int }

let record tally c o =
  tally.attempted <- tally.attempted + 1;
  if not o.ok then begin
    tally.failures <- tally.failures + 1;
    Printf.printf "FAILED %s: %s\n%!" (label c) o.why
  end

(* one warm-up round (untimed, but checked), then rounds until [seconds]
   have passed; each round runs every cell once, in an order rotated per
   round *)
let rounds ~seconds ~min_rounds tally cells f =
  let arr = Array.of_list cells in
  let n = Array.length arr in
  let warm = List.map (fun c -> let o = run_cell c in record tally c o; (c, o)) cells in
  let deadline = now () + int_of_float (seconds *. 1e9) in
  let rec go r acc =
    if r >= min_rounds && now () >= deadline then List.rev acc
    else begin
      let outs =
        List.init n (fun i ->
            let c = arr.((i + r) mod n) in
            let o = run_cell c in
            record tally c o;
            (c, o))
      in
      go (r + 1) (f outs :: acc)
    end
  in
  (warm, go 0 [])

let mib words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.

let simulated warm =
  let mains = List.filter (fun (c, o) -> c.main && o.ok) warm in
  let cycles prog mode =
    List.find_map (fun (c, o) -> if c.prog = prog && c.mode = mode then Some o.cycles else None) mains
  in
  let progs = List.sort_uniq compare (List.map (fun (c, _) -> c.prog) mains) in
  let sim_cycles =
    List.fold_left
      (fun s (c, o) -> if c.mode = M.Fine_grained then Int64.add s o.cycles else s)
      0L mains
  in
  let slowdown mode =
    geomean
      (List.filter_map
         (fun p ->
           match (cycles p mode, cycles p M.Unsafe) with
           | Some m, Some u when u > 0L -> Some (Int64.to_float m /. Int64.to_float u)
           | _ -> None)
         progs)
  in
  let leaked = List.fold_left (fun s (_, o) -> s + o.leaked) 0 warm in
  (Int64.to_float sim_cycles, slowdown, leaked)

let timed ~scale ~workload ~seed ~seconds =
  let cells = cells_of scale workload seed in
  let tally = { attempted = 0; failures = 0 } in
  let warm, samples =
    rounds ~seconds ~min_rounds:3 tally cells (fun outs ->
        let insns = List.fold_left (fun s (_, o) -> Int64.add s o.insns) 0L outs in
        let run_ns = List.fold_left (fun s (_, o) -> s + o.run_ns) 0 outs in
        let setup_ns = List.fold_left (fun s (_, o) -> s + o.setup_ns) 0 outs in
        (Int64.to_float insns /. float_of_int run_ns *. 1e3, float_of_int setup_ns /. 1e9))
  in
  let mips = List.map fst samples and setup = List.map snd samples in
  Printf.printf "guest_mips: %s\nsetup_s: %s\n"
    (describe_samples ~higher_better:true mips)
    (describe_samples ~higher_better:false setup);
  let sim_cycles, slowdown, leaked = simulated warm in
  let m name value unit_ = { name; value; unit_ } in
  let metrics =
    [
      m "guest_mips" (median mips) "MIPS";
      m "setup_s" (median setup) "s";
      m "peak_heap_mb" (mib (Gc.quick_stat ()).Gc.top_heap_words) "MB";
      m "sim_cycles" sim_cycles "cycles";
      m "sim_slowdown.fine-grained" (slowdown M.Fine_grained) "x";
      m "sim_slowdown.min-cut" (slowdown M.Min_cut) "x";
      m "sim_slowdown.fence-on-detect" (slowdown M.Fence_on_detect) "x";
    ]
  in
  (tally, leaked, metrics)

(* ---- traced runs (--trace 1) *)

let span_dir = "hostbench/out"

(* cells whose processor the tracer can drive: the oracle runs its own
   loop, so its cells are measured from outside only *)
let traceable c = match c.job with Plain _ | Poc _ -> true | Oracle _ -> false

(* exact counters of the first traced round's untraced runs, keyed by the
   per-layer metric name they feed *)
let add_counts tbl p (r : P.result) =
  let add name v =
    Hashtbl.replace tbl name (v +. Option.value ~default:0. (Hashtbl.find_opt tbl name))
  in
  let f = float_of_int and g = Int64.to_float in
  let cc = Gb_dbt.Code_cache.stats (E.code_cache (P.engine p)) in
  let cs = Gb_cache.Cache.stats (Gb_cache.Hierarchy.cache (P.hierarchy p)) in
  add "interp.insns" (g r.P.interp_insns);
  add "translate.regions" (f (r.P.translations + r.P.first_pass_translations));
  add "translate.guest_insns" (f (E.stats (P.engine p)).E.guest_insns_translated);
  add "pipeline.bundles" (g r.P.bundles);
  add "pipeline.rollbacks" (g r.P.rollbacks);
  add "pipeline.side_exits" (g r.P.side_exits);
  add "pipeline.stall_cycles" (g r.P.stall_cycles);
  add "dispatch.exits" (g r.P.dispatch_exits);
  add "dispatch.chain_follows" (g r.P.chain_follows);
  add "code_cache.evictions" (f r.P.cc_evictions);
  add "code_cache.hits" (f cc.Gb_dbt.Code_cache.hits);
  add "code_cache.lookups" (f (cc.Gb_dbt.Code_cache.hits + cc.Gb_dbt.Code_cache.misses));
  add "cache.accesses" (f (cs.Gb_cache.Cache.reads + cs.Gb_cache.Cache.writes));
  add "cache.misses" (f (cs.Gb_cache.Cache.read_misses + cs.Gb_cache.Cache.write_misses));
  add "mitigation.patterns_found" (f r.P.patterns_found);
  add "mitigation.fences_inserted" (f r.P.fences_inserted);
  add "mitigation.loads_constrained" (f r.P.loads_constrained);
  add "verify.checked" (f r.P.verify_checked);
  add "verify.rejections" (f r.P.verify_rejections);
  add "guest_insns" (g r.P.guest_insns)

(* overheads measured from outside, one sample per round *)
type overheads = {
  sink_x : float;  (** active sink / noop sink, PoCs *)
  audit_x : float;  (** audit + sink / sink, PoCs *)
  oracle_x : float;  (** Oracle.run / Processor.run, both with a sink *)
  observers : float;  (** share of host time that goes with all three off *)
  syncs : float;
  ref_insns : float;
}

(* per-layer self time of one traced round, ns, indexed like Tracer.names *)
type round = { self : float array; wall : float; untraced : float }

let traced ~scale ~workload ~seed ~seconds =
  let cells = cells_of scale workload seed in
  let tally = { attempted = 0; failures = 0 } in
  let fail c why =
    tally.attempted <- tally.attempted + 1;
    tally.failures <- tally.failures + 1;
    Printf.printf "FAILED %s: %s\n%!" (label c) why
  in
  let pass () = tally.attempted <- tally.attempted + 1 in
  let counts = Hashtbl.create 32 in
  let count name = Option.value ~default:0. (Hashtbl.find_opt counts name) in
  let replay = Tracer.empty_replay () in
  let leaked = ref 0 in
  (try Sys.mkdir span_dir 0o755 with Sys_error _ -> ());
  let spans_oc = open_out (Filename.concat span_dir (workload ^ ".spans.jsonl")) in
  (* one round: for every traceable cell an untraced run, then a traced
     run on a fresh processor; the first round also collects counts,
     writes its spans and replays the translations *)
  let one_round r =
    let self = Array.make (Array.length Tracer.names) 0. in
    let wall = ref 0. and plain_wall = ref 0. in
    List.iteri
      (fun i c ->
        let fresh () = snd (setup c ~obs:(obs_for c) ~audit:(audited c)) in
        let untraced () =
          Gc.full_major ();
          let p = fresh () in
          let gc0 = Gc.quick_stat () in
          let t0 = now () in
          let r0 = P.run p in
          let t1 = now () in
          (p, r0, t1 - t0, gc0, Gc.quick_stat ())
        in
        let traced () =
          Gc.full_major ();
          let q = fresh () in
          (q, Tracer.run ~max_cycles:c.config.P.max_cycles q)
        in
        try
          (* odd rounds run the traced copy first, so order effects cancel
             in the tracing overhead; round 0's GC counts come first *)
          let (p, r0, untraced_ns, gc0, gc1), (q, tr) =
            if r mod 2 = 0 then
              let u = untraced () in
              (u, traced ())
            else
              let t = traced () in
              (untraced (), t)
          in
          let same =
            tr.Tracer.exit_code = r0.P.exit_code && tr.Tracer.cycles = r0.P.cycles
            && tr.Tracer.guest_insns = r0.P.guest_insns
          in
          let ok_out =
            match c.job with
            | Plain _ -> expect_ok c r0
            | _ -> if r0.P.exit_code = 0 then "" else "PoC exit code"
          in
          if not same then
            fail c
              (Printf.sprintf "traced run differs: exit %d/%d cycles %Ld/%Ld insns %Ld/%Ld"
                 tr.Tracer.exit_code r0.P.exit_code tr.Tracer.cycles r0.P.cycles tr.Tracer.guest_insns
                 r0.P.guest_insns)
          else if ok_out <> "" then fail c ok_out
          else pass ();
          let st = Tracer.self_times tr.Tracer.spans in
          Array.iteri (fun j x -> self.(j) <- self.(j) +. float_of_int x) st;
          wall := !wall +. float_of_int tr.Tracer.wall_ns;
          plain_wall := !plain_wall +. float_of_int untraced_ns;
          if r = 0 then begin
            add_counts counts p r0;
            Hashtbl.replace counts "gc.minor_words"
              (count "gc.minor_words" +. gc1.Gc.minor_words -. gc0.Gc.minor_words);
            Hashtbl.replace counts "gc.major_collections"
              (count "gc.major_collections"
              +. float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
            (match c.job with
            | Poc (_, secret) when c.mode <> M.Unsafe ->
              let asm = Gb_kernelc.Compile.assemble (ast_of c) in
              let got = Gb_attack.Side_channel.read_recovered (P.mem q) asm ~len:(String.length secret) in
              String.iteri (fun k ch -> if got.[k] = ch then incr leaked) secret
            | _ -> ());
            Tracer.write spans_oc ~run:i ~label:(label c) tr.Tracer.spans;
            Tracer.replay c.config q replay
          end
        with e -> fail c (Printexc.to_string e))
      (List.filter traceable cells);
    { self; wall = !wall; untraced = !plain_wall }
  in
  (* overhead ratios measured from outside: the same program with the
     layer on and off, interleaved, summed over the workload's cells *)
  let overhead_round () =
    let t f =
      Gc.full_major ();
      let t0 = now () in
      f ();
      float_of_int (now () - t0)
    in
    let off = ref 0. and sink_on = ref 0. and audit_on = ref 0. in
    let proc_sink = ref 0. and proc_off = ref 0. and oracle = ref 0. in
    let syncs = ref 0. and ref_insns = ref 0. in
    List.iter
      (fun c ->
        match c.job with
        | Poc _ ->
          let run obs audit =
            let _, p = setup c ~obs ~audit in
            t (fun () -> ignore (P.run p))
          in
          off := !off +. run Gb_obs.Sink.noop false;
          sink_on := !sink_on +. run (sink ()) false;
          audit_on := !audit_on +. run (sink ()) true
        | Oracle _ ->
          let _, p = setup c ~obs:Gb_obs.Sink.noop ~audit:false in
          proc_off := !proc_off +. t (fun () -> ignore (P.run p));
          let asm, p = setup c ~obs:(sink ()) ~audit:false in
          proc_sink := !proc_sink +. t (fun () -> ignore (P.run p));
          let rep = ref None in
          let obs = sink () in
          oracle :=
            !oracle
            +. t (fun () -> rep := Some (Gb_diff.Oracle.run ~config:c.config ~obs ~inject:[] asm));
          (match !rep with
          | Some rep when Gb_diff.Oracle.clean rep ->
            pass ();
            syncs := !syncs +. float_of_int rep.Gb_diff.Oracle.syncs;
            ref_insns := !ref_insns +. Int64.to_float rep.Gb_diff.Oracle.ref_insns
          | _ -> fail c "oracle report not clean")
        | Plain _ -> ())
      cells;
    let observed = !audit_on +. !oracle and plain = !off +. !proc_off in
    {
      sink_x = ratio !sink_on !off;
      audit_x = ratio !audit_on !sink_on;
      oracle_x = ratio !oracle !proc_sink;
      observers = (if observed > 0. then 1. -. (plain /. observed) else 0.);
      syncs = !syncs;
      ref_insns = !ref_insns;
    }
  in
  let has_overheads = List.exists (fun c -> match c.job with Plain _ -> false | _ -> true) cells in
  let deadline = now () + int_of_float (seconds *. 1e9) in
  let rec go r acc oacc =
    if r >= 2 && now () >= deadline then (List.rev acc, List.rev oacc)
    else
      let rd = one_round r in
      let o = if has_overheads then [ overhead_round () ] else [] in
      go (r + 1) (rd :: acc) (o @ oacc)
  in
  let rounds, overheads = go 0 [] [] in
  close_out spans_oc;
  let med f = median (List.map f rounds) in
  let layer i = med (fun rd -> rd.self.(i)) in
  let interp_ns = layer Tracer.s_interp and translate_ns = layer Tracer.s_translate in
  let pipeline_ns = layer Tracer.s_pipeline in
  let dispatch_ns = layer Tracer.s_dispatch +. layer Tracer.s_chain in
  let layers_sum rd =
    rd.self.(Tracer.s_interp) +. rd.self.(Tracer.s_translate) +. rd.self.(Tracer.s_pipeline)
    +. rd.self.(Tracer.s_dispatch) +. rd.self.(Tracer.s_chain)
  in
  let share ns = ratio ns (med (fun rd -> rd.wall)) in
  let unattributed = med (fun rd -> 1. -. ratio (layers_sum rd) rd.wall) in
  let unattributed_limit = 0.02 in
  if unattributed > unattributed_limit || unattributed < 0. then begin
    tally.failures <- tally.failures + 1;
    Printf.printf "FAILED layer self times leave %.4f of traced wall time unattributed (limit %.2f)\n"
      unattributed unattributed_limit
  end;
  let tracing_overhead = med (fun rd -> ratio rd.wall rd.untraced) in
  (* a workload without these layers pays nothing for them: ratio 1 *)
  let omed ~off f = if overheads = [] then off else median (List.map f overheads) in
  let first f = match overheads with o :: _ -> f o | [] -> 0. in
  let replayed = float_of_int (replay.Tracer.replayed.(0) + replay.Tracer.replayed.(1)) in
  let phase i =
    let n = replay.Tracer.replayed.(if i = 0 then 0 else 1) in
    ratio (float_of_int replay.Tracer.phase_ns.(i)) (float_of_int n *. 1e3)
  in
  Printf.printf "traced rounds: %d; layer self ns (medians): interp %.0f translate %.0f pipeline %.0f dispatch %.0f; unattributed %.4f\n"
    (List.length rounds) interp_ns translate_ns pipeline_ns dispatch_ns unattributed;
  let m name value unit_ = { name; value; unit_ } in
  let c name = m name (count name) "count" in
  let metrics =
    [
      c "interp.insns";
      m "interp.ns_per_insn" (ratio interp_ns (count "interp.insns")) "ns";
      m "interp.share" (share interp_ns) "ratio";
      c "translate.regions";
      c "translate.guest_insns";
      m "translate.us_per_region" (ratio translate_ns (count "translate.regions" *. 1e3)) "us";
      m "translate.share" (share translate_ns) "ratio";
    ]
    @ List.mapi (fun i p -> m ("translate." ^ p ^ ".us") (phase i) "us") (Array.to_list Tracer.phases)
    @ [
        m "translate.replayed_share"
          (ratio replayed (float_of_int (replay.Tracer.regions.(0) + replay.Tracer.regions.(1))))
          "ratio";
        c "pipeline.bundles";
        m "pipeline.ns_per_bundle" (ratio pipeline_ns (count "pipeline.bundles")) "ns";
        m "pipeline.share" (share pipeline_ns) "ratio";
        c "pipeline.rollbacks";
        c "pipeline.side_exits";
        m "pipeline.stall_cycles" (count "pipeline.stall_cycles") "cycles";
        c "dispatch.exits";
        c "dispatch.chain_follows";
        m "dispatch.ns_per_exit"
          (ratio dispatch_ns (count "dispatch.exits" +. count "dispatch.chain_follows"))
          "ns";
        m "dispatch.share" (share dispatch_ns) "ratio";
        c "code_cache.evictions";
        m "code_cache.hit_rate" (ratio (count "code_cache.hits") (count "code_cache.lookups")) "ratio";
        c "cache.accesses";
        m "cache.miss_rate" (ratio (count "cache.misses") (count "cache.accesses")) "ratio";
        c "mitigation.patterns_found";
        c "mitigation.fences_inserted";
        c "mitigation.loads_constrained";
        c "verify.checked";
        c "verify.rejections";
        m "obs.sink_overhead" (omed ~off:1. (fun o -> o.sink_x)) "x";
        m "audit.overhead" (omed ~off:1. (fun o -> o.audit_x)) "x";
        m "oracle.overhead" (omed ~off:1. (fun o -> o.oracle_x)) "x";
        m "observers.share" (omed ~off:0. (fun o -> o.observers)) "ratio";
        m "oracle.syncs" (first (fun o -> o.syncs)) "count";
        m "oracle.ref_insns" (first (fun o -> o.ref_insns)) "count";
        m "leaked_bytes" (float_of_int !leaked) "bytes";
        m "gc.minor_words_per_kinsn"
          (ratio (count "gc.minor_words") (count "guest_insns" /. 1e3))
          "words";
        c "gc.major_collections";
        m "trace.overhead" tracing_overhead "x";
        m "trace.unattributed_share" unattributed "ratio";
      ]
  in
  (tally, !leaked, metrics)

(* setup split, measured in the traced mode too so setup_s can be
   explained: assemble vs create, medians over repetitions *)
let setup_split ~cells ~reps =
  let asm_s = ref [] and create_s = ref [] in
  for _ = 1 to reps do
    let a = ref 0 and cr = ref 0 in
    List.iter
      (fun c ->
        Gc.full_major ();
        let t0 = now () in
        let asm = Gb_kernelc.Compile.assemble (ast_of c) in
        let t1 = now () in
        ignore (P.create ~config:c.config ~obs:(obs_for c) ~audit:(audited c) ~inject:(no_inject ()) asm);
        let t2 = now () in
        a := !a + (t1 - t0);
        cr := !cr + (t2 - t1))
      cells;
    asm_s := (float_of_int !a /. 1e9) :: !asm_s;
    create_s := (float_of_int !cr /. 1e9) :: !create_s
  done;
  (median !asm_s, median !create_s)

let measure ~scale ~workload ~seed ~seconds ~trace =
  let cells = cells_of scale workload seed in
  Printf.printf "workload %s seed %d: %d cells\n" workload seed (List.length cells);
  List.iter
    (fun cfg -> Printf.printf "config: %s\n" cfg)
    (List.sort_uniq compare (List.map (fun c -> describe_config c.config) cells));
  if trace then begin
    let tally, leaked, metrics = traced ~scale ~workload ~seed ~seconds in
    let asm_s, create_s = setup_split ~cells ~reps:(match scale with Full -> 5 | Tiny -> 1) in
    let metrics =
      metrics @ [ { name = "setup.assemble_s"; value = asm_s; unit_ = "s" };
                  { name = "setup.create_s"; value = create_s; unit_ = "s" } ]
    in
    (tally, leaked, metrics)
  end
  else timed ~scale ~workload ~seed ~seconds

(* ---- self-test: tiny sizes, checks the harness itself *)

let self_test () =
  let problems = ref [] in
  let check ok what = if not ok then problems := what :: !problems in
  (* generators: deterministic per seed, different across seeds *)
  List.iter
    (fun w ->
      let asts s = List.map ast_of (cells_of Full w s) in
      check (asts 3 = asts 3) (w ^ ": generator not deterministic");
      check (asts 3 <> asts 4) (w ^ ": seeds 3 and 4 give the same programs"))
    [ "hot-kernels"; "translate-storm"; "audit-oracle" ];
  (* every metric printed, with its unit; compared with BENCHMARK.json
     when it is readable *)
  let listed =
    match Gb_util.Json.of_string (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
    | Ok j ->
      let names key =
        match Option.bind (Gb_util.Json.get key j) Gb_util.Json.get_list with
        | Some l ->
          List.filter_map
            (fun o ->
              match (Gb_util.Json.get "name" o, Gb_util.Json.get "unit" o) with
              | Some n, Some u -> (
                match (Gb_util.Json.get_str n, Gb_util.Json.get_str u) with
                | Some n, Some u -> Some (n, u)
                | _ -> None)
              | _ -> None)
            l
        | None -> []
      in
      Some (names "end_to_end", names "per_layer")
    | Error _ -> None
    | exception Sys_error _ -> None
  in
  check (listed <> None) "BENCHMARK.json not readable from the working directory";
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let tally, _, metrics = measure ~scale:Tiny ~workload:w ~seed:5 ~seconds:0. ~trace in
          check (tally.failures = 0) (Printf.sprintf "%s trace=%b: %d failed operations" w trace tally.failures);
          let got = List.sort compare (List.map (fun m -> (m.name, m.unit_)) metrics) in
          match listed with
          | Some (e2e, layers) ->
            let want = List.sort compare (if trace then layers else e2e) in
            check (got = want) (Printf.sprintf "%s trace=%b: metrics differ from BENCHMARK.json" w trace)
          | None -> ())
        [ false; true ])
    workload_names;
  (* a wrong expected checksum is a failed operation, not a crash *)
  (match hot_kernels Tiny 5 with
  | c :: _ ->
    let bad = { c with expect = ((fst c.expect + 1) land 0xff, snd c.expect) } in
    let o = run_cell bad in
    check (not o.ok) "a wrong expected checksum was not reported as a failure"
  | [] -> check false "no hot-kernels cells");
  List.iter (fun p -> Printf.printf "self-test problem: %s\n" p) (List.rev !problems);
  let ok = !problems = [] in
  Printf.printf "self-test %s\n" (if ok then "passed" else "FAILED");
  exit (if ok then 0 else 1)

(* ---- command line *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 and self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME hot-kernels | translate-storm | audit-oracle");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measurement time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer traced (1) metrics");
      ("--self-test", Arg.Set self, " check the harness at tiny sizes");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !self then self_test ();
  if not (List.mem !workload workload_names) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  let tally, leaked, metrics =
    measure ~scale:Full ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  in
  let correct = tally.failures = 0 && leaked = 0 in
  print_result ~correct ~attempted:tally.attempted ~failed:tally.failures metrics
