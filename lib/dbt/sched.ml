type resources = {
  width : int;
  mem_slots : int;
  mul_slots : int;
  branch_slots : int;
}

let default_resources = { width = 4; mem_slots = 1; mul_slots = 1; branch_slots = 1 }

type cls = Alu_class | Mem_class | Mul_class | Branch_class

let classify = function
  | Gb_ir.Dfg.Kalu op ->
    if Gb_ir.Build.is_mul_like op || Gb_ir.Build.is_div_like op then Mul_class
    else Alu_class
  | Gb_ir.Dfg.Kload _ | Gb_ir.Dfg.Kstore _ | Gb_ir.Dfg.Kcflush -> Mem_class
  | Gb_ir.Dfg.Kbranch _ | Gb_ir.Dfg.Kchk _ | Gb_ir.Dfg.Kexit -> Branch_class
  | Gb_ir.Dfg.Krdcycle | Gb_ir.Dfg.Kfence -> Alu_class

exception Cyclic

(* Every dependency edge in CSR form: the successors of [u] are
   [succ.(j)] (edge latency [succ_lat.(j)]) for [j] in
   [first.(u) .. first.(u + 1) - 1]; [indeg.(u)] counts its incoming
   edges. (Array allocation is a C call, so the builder makes no more
   arrays than it returns.) *)
type csr = {
  first : int array;
  succ : int array;
  succ_lat : int array;
  indeg : int array;
}

let csr g =
  let n = Gb_ir.Dfg.n_nodes g in
  let edges = Gb_ir.Dfg.edges g in
  let first = Array.make (n + 1) 0 in
  let indeg = Array.make n 0 in
  List.iter
    (fun e ->
      first.(e.Gb_ir.Dfg.e_from) <- first.(e.Gb_ir.Dfg.e_from) + 1;
      indeg.(e.Gb_ir.Dfg.e_to) <- indeg.(e.Gb_ir.Dfg.e_to) + 1)
    edges;
  (* first.(u) := end of u's segment, then filled backwards to its start *)
  for u = 1 to n do
    first.(u) <- first.(u) + first.(u - 1)
  done;
  let m = first.(n) in
  let succ = Array.make m 0 in
  let succ_lat = Array.make m 0 in
  List.iter
    (fun e ->
      let j = first.(e.Gb_ir.Dfg.e_from) - 1 in
      succ.(j) <- e.Gb_ir.Dfg.e_to;
      succ_lat.(j) <- e.Gb_ir.Dfg.e_lat;
      first.(e.Gb_ir.Dfg.e_from) <- j)
    edges;
  { first; succ; succ_lat; indeg }

(* Kahn's algorithm: a topological order of all nodes, or [Cyclic].
   Counts [a.indeg] down to zero. *)
let topo_order n a =
  let indeg = a.indeg in
  let order = Array.make n 0 in
  let tail = ref 0 in
  for u = 0 to n - 1 do
    if indeg.(u) = 0 then begin
      order.(!tail) <- u;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let u = order.(!head) in
    incr head;
    for j = a.first.(u) to a.first.(u + 1) - 1 do
      let v = a.succ.(j) in
      indeg.(v) <- indeg.(v) - 1;
      if indeg.(v) = 0 then begin
        order.(!tail) <- v;
        incr tail
      end
    done
  done;
  if !tail <> n then raise Cyclic;
  order

let class_index = function
  | Alu_class -> 0
  | Mem_class -> 1
  | Mul_class -> 2
  | Branch_class -> 3

let branch_index = 3

let any_ready ready =
  Int_heap.size ready.(0) > 0
  || Int_heap.size ready.(1) > 0
  || Int_heap.size ready.(2) > 0
  || Int_heap.size ready.(3) > 0

(* The list scheduler keeps the nodes whose predecessors are all placed
   in two kinds of heap. [waiting] holds those whose operands are not
   available yet, earliest cycle first; a node's earliest cycle is final
   once its last predecessor is placed, so it leaves [waiting] once.
   [ready.(k)] holds the issuable nodes of resource class [k], highest
   critical-path priority first (ties: lower id).

   A bundle is filled by taking, among the classes with a free slot, the
   best head. That is the order in which one priority-ordered ready list
   would be scanned, minus the nodes such a scan would pop and skip
   because their class is full — they have no effect. A branch-class
   node refused by the branch-last rule is set aside and goes back after
   the bundle, and a successor freed by a latency-0 edge joins [ready]
   at once, so it can still issue in the same bundle. Cycles with
   nothing ready are jumped over. Every node is pushed and popped once
   per heap it passes through (branches once more per bundle they are
   refused in): O((n + e) log n), against the reference model's re-scan
   of every pending node on every cycle. *)
let schedule ?(obs = Gb_obs.Sink.noop) res ~lat g =
  let n = Gb_ir.Dfg.n_nodes g in
  let a = csr g in
  let order = topo_order n a in
  let cls = Array.make n 0 in
  for u = 0 to n - 1 do
    cls.(u) <- class_index (classify (Gb_ir.Dfg.node g u).Gb_ir.Dfg.kind)
  done;
  (* critical-path priority, computed in reverse topological order *)
  let prio = Array.make n 0 in
  for i = n - 1 downto 0 do
    let u = order.(i) in
    let best = ref 0 in
    for j = a.first.(u) to a.first.(u + 1) - 1 do
      let d = a.succ_lat.(j) + prio.(a.succ.(j)) in
      if d > !best then best := d
    done;
    prio.(u) <-
      Gb_ir.Build.latency_of lat (Gb_ir.Dfg.node g u).Gb_ir.Dfg.kind + !best
  done;
  (* the heaps' order, (-priority, id) as one int, overwrites [prio] *)
  let max_prio = Array.fold_left max 0 prio in
  let rank = prio in
  for u = 0 to n - 1 do
    rank.(u) <- ((max_prio - prio.(u)) * n) + u
  done;
  let cycle = Array.make n (-1) in
  let earliest = Array.make n 0 in
  (* [topo_order] used up the in-degrees: count them again *)
  let remaining_preds = a.indeg in
  Array.iter (fun v -> remaining_preds.(v) <- remaining_preds.(v) + 1) a.succ;
  let ready =
    [| Int_heap.create n rank; Int_heap.create n rank; Int_heap.create n rank;
       Int_heap.create n rank |]
  in
  let waiting = Int_heap.create n earliest in
  let slots = [| res.width; res.mem_slots; res.mul_slots; res.branch_slots |] in
  let free = [| 0; 0; 0; 0 |] in
  let c = ref 0 in
  (* Side exits are block terminators: the trace scheduler only places a
     branch-class node once no other operation is waiting to issue, so
     hoistable work (in particular speculative loads from beyond the exit)
     actually moves above it. This is what makes the optimizer's
     "move loads before the conditional branch" decision effective. *)
  let pending_nonbranch = ref 0 in
  for u = 0 to n - 1 do
    if remaining_preds.(u) = 0 then begin
      if cls.(u) <> branch_index then incr pending_nonbranch;
      Int_heap.push ready.(cls.(u)) u
    end
  done;
  let scheduled = ref 0 in
  while !scheduled < n do
    if not (any_ready ready) then begin
      if Int_heap.size waiting = 0 then raise Cyclic;
      c := max !c earliest.(Int_heap.top waiting)
    end;
    while Int_heap.size waiting > 0 && earliest.(Int_heap.top waiting) <= !c do
      let u = Int_heap.pop waiting in
      Int_heap.push ready.(cls.(u)) u
    done;
    (* fill one bundle at cycle !c *)
    for k = 0 to 3 do
      free.(k) <- slots.(k)
    done;
    let used = ref 0 in
    let refused = ref [] in
    let filling = ref true in
    while !filling && !used < res.width do
      let best = ref (-1) in
      for k = 0 to 3 do
        let h = ready.(k) in
        if free.(k) > 0 && Int_heap.size h > 0
           && (!best < 0 || rank.(Int_heap.top h) < rank.(Int_heap.top ready.(!best)))
        then best := k
      done;
      let k = !best in
      if k < 0 then filling := false
      else begin
        let u = Int_heap.pop ready.(k) in
        if k = branch_index && !pending_nonbranch > 0 then refused := u :: !refused
        else begin
          incr used;
          free.(k) <- free.(k) - 1;
          if k <> branch_index then decr pending_nonbranch;
          cycle.(u) <- !c;
          incr scheduled;
          for j = a.first.(u) to a.first.(u + 1) - 1 do
            let v = a.succ.(j) in
            let at = !c + a.succ_lat.(j) in
            if at > earliest.(v) then earliest.(v) <- at;
            remaining_preds.(v) <- remaining_preds.(v) - 1;
            if remaining_preds.(v) = 0 then begin
              if cls.(v) <> branch_index then incr pending_nonbranch;
              if earliest.(v) <= !c then Int_heap.push ready.(cls.(v)) v
              else Int_heap.push waiting v
            end
          done
        end
      end
    done;
    List.iter (Int_heap.push ready.(branch_index)) !refused;
    incr c
  done;
  if Gb_obs.Sink.is_active obs then begin
    Gb_obs.Sink.observe obs "sched.nodes" (float_of_int n);
    Gb_obs.Sink.observe obs "sched.schedule_cycles" (float_of_int !c)
  end;
  cycle
