type tier = Block | Trace

type code_mode = Nonspec | Mitigated of Gb_core.Mitigation.mode

type entry = {
  e_pc : int;
  e_trace : Gb_vliw.Vinsn.trace;
  e_tier : tier;
  e_mode : code_mode;
  e_gen : int;
  mutable e_stamp : int;
  e_lru : lru;
}

(* one link of the doubly-linked, circular recency list *)
and lru = { mutable older : entry; mutable newer : entry }

type config = { capacity : int; chain : bool }

let default_config =
  { capacity = 65536; chain = Sys.getenv_opt "GHOSTBUSTERS_NO_CHAIN" = None }

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable inserts : int;
  mutable evictions : int;
  mutable chain_links : int;
  mutable chain_breaks : int;
}

type t = {
  cfg : config;
  lock : Mutex.t;
      (* guards every mutation (and, for cross-domain callers, every
         read) of the tables below. The simulation's hot path is
         single-domain — the owning domain is the only one that installs
         or looks up during a run — but the installation protocol must
         stay safe when a worker-domain client (tests, the future
         multi-tenant server) races installs against invalidations. *)
  tbl : entry Gb_util.Pc_tbl.t;
  lru : entry;
      (* sentinel of the recency list, in stamp order: [lru.e_lru.newer]
         is the least recently used entry, [lru.e_lru.older] the most
         recent one. Every installed entry is on it, nothing else. *)
  in_links : (int * Gb_vliw.Vinsn.stub) list ref Gb_util.Pc_tbl.t;
      (* target pc -> (source pc, stub) of every link ever made into the
         translation currently (or formerly) installed there; stale pairs
         (stub already unlinked, or re-pointed at a newer translation of
         the same pc — never of a different pc, since links require
         stub.target_pc = target) are skipped via the identity check *)
  inval_gen : int Gb_util.Pc_tbl.t;
      (* pc -> generation at which the translation installed there was
         last removed (invalidated, evicted or replaced); consulted by
         generation-tagged installs *)
  mutable used : int;
  mutable lru_clock : int;
  mutable next_gen : int;
      (* the cache-wide mutation generation: bumped by every install and
         every removal. Doubles as the per-entry generation stamp, so
         e_gen stays unique and monotonic (it just skips values). *)
  stats : stats;
  obs : Gb_obs.Sink.t;
  mutable on_evict : pc:int -> tier -> unit;
}

let sentinel () =
  let rec e =
    {
      e_pc = -1;
      e_trace =
        {
          Gb_vliw.Vinsn.entry_pc = -1;
          bundles = [||];
          stubs = [||];
          n_regs = 0;
          guest_insns = 0;
          meta = Gb_vliw.Vinsn.empty_meta;
        };
      e_tier = Block;
      e_mode = Nonspec;
      e_gen = -1;
      e_stamp = -1;
      e_lru = l;
    }
  and l = { older = e; newer = e } in
  e

let create ?(obs = Gb_obs.Sink.noop) cfg =
  {
    cfg;
    lock = Mutex.create ();
    tbl = Gb_util.Pc_tbl.create 128;
    lru = sentinel ();
    in_links = Gb_util.Pc_tbl.create 128;
    inval_gen = Gb_util.Pc_tbl.create 64;
    used = 0;
    lru_clock = 0;
    next_gen = 0;
    stats =
      {
        hits = 0;
        misses = 0;
        inserts = 0;
        evictions = 0;
        chain_links = 0;
        chain_breaks = 0;
      };
    obs;
    on_evict = (fun ~pc:_ _ -> ());
  }

(* The match-on-exception form unlocks on both paths without the two
   closures [Fun.protect ~finally] would allocate per call; [f] itself
   still allocates when it captures — the per-exit hot paths ([peek],
   [find]) therefore avoid [with_lock] entirely. *)
let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e ->
    Mutex.unlock t.lock;
    raise e

let config t = t.cfg

let stats t = t.stats

let set_on_evict t f = t.on_evict <- f

let used_bundles t = with_lock t (fun () -> t.used)

(* [touch] moves an entry to the most-recent end of the recency list as
   it stamps it, so the list is in stamp order and its least-recent end
   is the entry with the least stamp (stamps are unique): an eviction
   takes it without a scan. *)
let lru_unlink e =
  let l = e.e_lru in
  l.older.e_lru.newer <- l.newer;
  l.newer.e_lru.older <- l.older

let lru_push t e =
  let s = t.lru.e_lru in
  let l = e.e_lru in
  l.older <- s.older;
  l.newer <- t.lru;
  s.older.e_lru.newer <- e;
  s.older <- e

let touch t e =
  t.lru_clock <- t.lru_clock + 1;
  e.e_stamp <- t.lru_clock;
  if t.lru.e_lru.older != e then begin
    lru_unlink e;
    lru_push t e
  end

(* [peek]/[find] run per trace exit on the chain-follow path, and [find]
   per interpreted instruction: no [with_lock] closure, no exception on a
   miss, and the only allocation left is the [Some] of a hit. *)
let peek t pc =
  Mutex.lock t.lock;
  let r = Gb_util.Pc_tbl.find_opt t.tbl pc in
  Mutex.unlock t.lock;
  r

let find t pc =
  Mutex.lock t.lock;
  let hit =
    match Gb_util.Pc_tbl.find_opt t.tbl pc with
    | Some e as hit ->
      touch t e;
      t.stats.hits <- t.stats.hits + 1;
      hit
    | None ->
      t.stats.misses <- t.stats.misses + 1;
      None
  in
  Mutex.unlock t.lock;
  (if Gb_obs.Sink.is_active t.obs then
     match hit with
     | Some _ -> Gb_obs.Sink.incr t.obs "code_cache.hits"
     | None -> Gb_obs.Sink.incr t.obs "code_cache.misses");
  hit

let gauges t =
  if Gb_obs.Sink.is_active t.obs then begin
    Gb_obs.Sink.set_gauge t.obs "code_cache.bundles" (float_of_int t.used);
    Gb_obs.Sink.set_gauge t.obs "code_cache.entries"
      (float_of_int (Gb_util.Pc_tbl.length t.tbl))
  end

let break_stub t ~src_pc (stub : Gb_vliw.Vinsn.stub) =
  match stub.Gb_vliw.Vinsn.chain with
  | None -> ()
  | Some target ->
    stub.Gb_vliw.Vinsn.chain <- None;
    t.stats.chain_breaks <- t.stats.chain_breaks + 1;
    if Gb_obs.Sink.is_active t.obs then begin
      Gb_obs.Sink.incr t.obs "code_cache.chain_breaks";
      Gb_obs.Sink.event t.obs ~pc:stub.Gb_vliw.Vinsn.target_pc ~region:src_pc
        (Gb_obs.Event.Chain
           { target = target.Gb_vliw.Vinsn.entry_pc; op = `Break })
    end

(* Sever every link touching [e]: its own out-links (the pipeline may
   still hold the trace object mid-flight and must not follow chains out
   of dropped code) and all in-links whose stub still points at exactly
   this trace object. *)
let unlink t e =
  Array.iter (break_stub t ~src_pc:e.e_pc) e.e_trace.Gb_vliw.Vinsn.stubs;
  match Gb_util.Pc_tbl.find_opt t.in_links e.e_pc with
  | None -> ()
  | Some l ->
    List.iter
      (fun (src_pc, (stub : Gb_vliw.Vinsn.stub)) ->
        match stub.Gb_vliw.Vinsn.chain with
        | Some target when target == e.e_trace -> break_stub t ~src_pc stub
        | Some _ | None -> ())
      !l;
    Gb_util.Pc_tbl.remove t.in_links e.e_pc

(* every removal is a mutation a generation-tagged install must observe:
   record the generation at which this pc's translation died *)
let remove t e =
  unlink t e;
  Gb_util.Pc_tbl.remove t.tbl e.e_pc;
  lru_unlink e;
  t.used <- t.used - Gb_vliw.Vinsn.bundle_count e.e_trace;
  t.next_gen <- t.next_gen + 1;
  Gb_util.Pc_tbl.replace t.inval_gen e.e_pc t.next_gen

let invalidate t pc =
  with_lock t (fun () ->
      match Gb_util.Pc_tbl.find_opt t.tbl pc with
      | None -> ()
      | Some e ->
        remove t e;
        gauges t)

let evict_lru t =
  let e = t.lru.e_lru.newer in
  if e != t.lru then begin
    remove t e;
    t.stats.evictions <- t.stats.evictions + 1;
    if Gb_obs.Sink.is_active t.obs then begin
      Gb_obs.Sink.incr t.obs "code_cache.evictions";
      Gb_obs.Sink.event t.obs ~pc:e.e_pc ~region:e.e_pc
        (Gb_obs.Event.Tier_transition { tier = "evicted" })
    end;
    t.on_evict ~pc:e.e_pc e.e_tier
  end

let insert_locked t ~pc ~tier ~mode trace =
  (* same-pc replacement (tier promotion, retranslation) is not an
     eviction: no stat, no hook *)
  (match Gb_util.Pc_tbl.find_opt t.tbl pc with
  | Some old -> remove t old
  | None -> ());
  let cost = Gb_vliw.Vinsn.bundle_count trace in
  while t.used + cost > t.cfg.capacity && Gb_util.Pc_tbl.length t.tbl > 0 do
    evict_lru t
  done;
  t.next_gen <- t.next_gen + 1;
  let e =
    { e_pc = pc; e_trace = trace; e_tier = tier; e_mode = mode;
      e_gen = t.next_gen; e_stamp = 0;
      e_lru = { older = t.lru; newer = t.lru } }
  in
  t.lru_clock <- t.lru_clock + 1;
  e.e_stamp <- t.lru_clock;
  lru_push t e;
  Gb_util.Pc_tbl.replace t.tbl pc e;
  t.used <- t.used + cost;
  t.stats.inserts <- t.stats.inserts + 1;
  (* register the tier with the attribution ledger: it outlives eviction,
     so a trace still in flight keeps attributing to the tier it ran at *)
  (match Gb_obs.Sink.attrib t.obs with
  | Some a ->
    Gb_obs.Attrib.set_tier a ~entry:pc
      (match tier with
      | Block -> Gb_obs.Attrib.Block
      | Trace -> Gb_obs.Attrib.Trace)
  | None -> ());
  gauges t;
  e

let insert t ~pc ~tier ~mode trace =
  with_lock t (fun () -> insert_locked t ~pc ~tier ~mode trace)

let generation t = with_lock t (fun () -> t.next_gen)

let insert_tagged t ~gen ~pc ~tier ~mode trace =
  with_lock t (fun () ->
      let stale =
        match Gb_util.Pc_tbl.find_opt t.inval_gen pc with
        | Some g -> g > gen
        | None -> false
      in
      if stale then None else Some (insert_locked t ~pc ~tier ~mode trace))

(* Non-speculative code is mode-neutral: it neither leaks speculative
   state of its own nor inherits any (the MCB is cleared and the audit's
   run window closed at every stub commit), so it may chain from and to
   anything. Two speculating translations must agree on their mode. *)
let compatible ~src ~dst =
  match (src.e_mode, dst.e_mode) with
  | Nonspec, _ | _, Nonspec -> true
  | Mitigated a, Mitigated b -> a = b

let link t ~src ~stub ~dst =
  if
    (not t.cfg.chain)
    || stub < 0
    || stub >= Array.length src.e_trace.Gb_vliw.Vinsn.stubs
    || not (compatible ~src ~dst)
  then false
  else
    with_lock t (fun () ->
        (* [src] and [dst] were looked up before this lock was taken:
           either may have been invalidated or replaced by another domain
           in between. Linking through a dead entry would plant a chain
           no removal can ever break — [unlink] only reaches stubs via
           the live tables — so re-check both endpoints here, under the
           same lock every removal runs under. *)
        let live e =
          match Gb_util.Pc_tbl.find_opt t.tbl e.e_pc with
          | Some cur -> cur == e
          | None -> false
        in
        if not (live src && live dst) then false
        else
        let s = src.e_trace.Gb_vliw.Vinsn.stubs.(stub) in
        if s.Gb_vliw.Vinsn.target_pc <> dst.e_pc then false
        else
          match s.Gb_vliw.Vinsn.chain with
          | Some target when target == dst.e_trace -> true
          | _ ->
            s.Gb_vliw.Vinsn.chain <- Some dst.e_trace;
            let l =
              match Gb_util.Pc_tbl.find_opt t.in_links dst.e_pc with
              | Some l -> l
              | None ->
                let l = ref [] in
                Gb_util.Pc_tbl.replace t.in_links dst.e_pc l;
                l
            in
            l := (src.e_pc, s) :: !l;
            t.stats.chain_links <- t.stats.chain_links + 1;
            if Gb_obs.Sink.is_active t.obs then begin
              Gb_obs.Sink.incr t.obs "code_cache.chain_links";
              Gb_obs.Sink.event t.obs ~pc:s.Gb_vliw.Vinsn.target_pc
                ~region:src.e_pc
                (Gb_obs.Event.Chain { target = dst.e_pc; op = `Link })
            end;
            true)

let entries t =
  with_lock t (fun () -> Gb_util.Pc_tbl.fold (fun _ e acc -> e :: acc) t.tbl [])

let occupancy t tier =
  with_lock t (fun () ->
      Gb_util.Pc_tbl.fold
        (fun _ e ((n, b) as acc) ->
          if e.e_tier = tier then
            (n + 1, b + Gb_vliw.Vinsn.bundle_count e.e_trace)
          else acc)
        t.tbl (0, 0))

let well_linked t =
  with_lock t (fun () ->
      Gb_util.Pc_tbl.fold
        (fun _ e ok ->
          ok
          && Array.for_all
               (fun (s : Gb_vliw.Vinsn.stub) ->
                 match s.Gb_vliw.Vinsn.chain with
                 | None -> true
                 | Some target -> (
                   s.Gb_vliw.Vinsn.target_pc = target.Gb_vliw.Vinsn.entry_pc
                   &&
                   match
                     Gb_util.Pc_tbl.find_opt t.tbl target.Gb_vliw.Vinsn.entry_pc
                   with
                   | Some e' -> e'.e_trace == target
                   | None -> false))
               e.e_trace.Gb_vliw.Vinsn.stubs)
        t.tbl true)
