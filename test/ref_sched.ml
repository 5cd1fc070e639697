(* Reference model of the DBT's list scheduler: the original
   implementation over adjacency lists and a polymorphic-compare ready
   set, kept verbatim (names qualified) as the oracle that
   [Gb_dbt.Sched.schedule] must match cycle for cycle. Not optimised on
   purpose: it re-pops every not-yet-ready node on every cycle. *)

(* All dependencies as adjacency lists: data edges reconstructed from node
   sources, plus the explicit memory/control edges. *)
let adjacency g ~lat =
  let n = Gb_ir.Dfg.n_nodes g in
  let succs = Array.make n [] in
  let preds = Array.make n [] in
  let add_dep ~from ~to_ ~l =
    succs.(from) <- (to_, l) :: succs.(from);
    preds.(to_) <- (from, l) :: preds.(to_)
  in
  List.iter
    (fun e ->
      add_dep ~from:e.Gb_ir.Dfg.e_from ~to_:e.Gb_ir.Dfg.e_to ~l:e.Gb_ir.Dfg.e_lat)
    (Gb_ir.Dfg.edges g);
  ignore lat;
  (succs, preds)

let topo_order n succs preds =
  let indeg = Array.map List.length preds in
  let queue = Queue.create () in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then Queue.add i queue
  done;
  let order = ref [] in
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    order := u :: !order;
    incr seen;
    List.iter
      (fun (v, _) ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then Queue.add v queue)
      succs.(u)
  done;
  if !seen <> n then raise Gb_dbt.Sched.Cyclic;
  List.rev !order

let schedule ?(obs = Gb_obs.Sink.noop) res ~lat g =
  let n = Gb_ir.Dfg.n_nodes g in
  let succs, preds = adjacency g ~lat in
  let order = topo_order n succs preds in
  (* critical-path priority, computed in reverse topological order *)
  let prio = Array.make n 0 in
  List.iter
    (fun u ->
      let own = Gb_ir.Build.latency_of lat (Gb_ir.Dfg.node g u).Gb_ir.Dfg.kind in
      let best =
        List.fold_left (fun acc (v, l) -> max acc (l + prio.(v))) 0 succs.(u)
      in
      prio.(u) <- own + best)
    (List.rev order);
  let cycle = Array.make n (-1) in
  let earliest = Array.make n 0 in
  let remaining_preds = Array.map List.length preds in
  (* ready pool sorted by priority (descending), then id *)
  let module Pool = Set.Make (struct
    type t = int * int (* (-priority, id) *)

    let compare = compare
  end) in
  let pool = ref Pool.empty in
  (* Side exits are block terminators: the trace scheduler only places a
     branch-class node once no other operation is waiting to issue, so
     hoistable work (in particular speculative loads from beyond the exit)
     actually moves above it. This is what makes the optimizer's
     "move loads before the conditional branch" decision effective. *)
  let pending_nonbranch = ref 0 in
  let is_branch u = Gb_dbt.Sched.classify (Gb_ir.Dfg.node g u).Gb_ir.Dfg.kind = Gb_dbt.Sched.Branch_class in
  let push u =
    if not (is_branch u) then incr pending_nonbranch;
    pool := Pool.add (-prio.(u), u) !pool
  in
  Array.iteri (fun u k -> if k = 0 then push u) remaining_preds;
  let scheduled = ref 0 in
  let c = ref 0 in
  while !scheduled < n do
    (* fill one bundle at cycle !c *)
    let used = ref 0 in
    let used_mem = ref 0 in
    let used_mul = ref 0 in
    let used_branch = ref 0 in
    let fits node_cls =
      !used < res.Gb_dbt.Sched.width
      &&
      match node_cls with
      | Gb_dbt.Sched.Mem_class -> !used_mem < res.Gb_dbt.Sched.mem_slots
      | Gb_dbt.Sched.Mul_class -> !used_mul < res.Gb_dbt.Sched.mul_slots
      | Gb_dbt.Sched.Branch_class -> !used_branch < res.Gb_dbt.Sched.branch_slots
      | Gb_dbt.Sched.Alu_class -> true
    in
    let take node_cls =
      incr used;
      match node_cls with
      | Gb_dbt.Sched.Mem_class -> incr used_mem
      | Gb_dbt.Sched.Mul_class -> incr used_mul
      | Gb_dbt.Sched.Branch_class -> incr used_branch
      | Gb_dbt.Sched.Alu_class -> ()
    in
    let push_key key = pool := Pool.add key !pool in
    let rec fill skipped =
      if !used >= res.Gb_dbt.Sched.width then List.iter push_key skipped
      else
        match Pool.min_elt_opt !pool with
        | None -> List.iter push_key skipped
        | Some ((_, u) as key) ->
          pool := Pool.remove key !pool;
          let k = Gb_dbt.Sched.classify (Gb_ir.Dfg.node g u).Gb_ir.Dfg.kind in
          let branch_allowed =
            k <> Gb_dbt.Sched.Branch_class || !pending_nonbranch = 0
          in
          if earliest.(u) <= !c && fits k && branch_allowed then begin
            take k;
            if k <> Gb_dbt.Sched.Branch_class then decr pending_nonbranch;
            cycle.(u) <- !c;
            incr scheduled;
            List.iter
              (fun (v, l) ->
                earliest.(v) <- max earliest.(v) (!c + l);
                remaining_preds.(v) <- remaining_preds.(v) - 1;
                if remaining_preds.(v) = 0 then push v)
              succs.(u);
            fill skipped
          end
          else fill (key :: skipped)
    in
    fill [];
    incr c
  done;
  if Gb_obs.Sink.is_active obs then begin
    Gb_obs.Sink.observe obs "sched.nodes" (float_of_int n);
    Gb_obs.Sink.observe obs "sched.schedule_cycles" (float_of_int !c)
  end;
  cycle
