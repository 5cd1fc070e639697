(** The bounded code cache: the single owner of all translated code.

    Real DBT processors (Transmeta Crusoe, NVidia Denver) run translated
    code out of a fixed-size region of host memory, evict translations
    under pressure and link hot traces directly to each other so
    steady-state execution never returns to the dispatcher. This module
    models that: both tiers of translation (first-pass {!Block}s and
    optimized {!Trace}s) live in one table under a capacity budget
    counted in VLIW bundles, evicted least recently used first (an O(1)
    step, off an intrusive recency list), with a generation counter per
    installed entry.

    It is also the only component allowed to patch {!Gb_vliw.Vinsn.stub}
    chain links (trace chaining), because it alone knows which
    translations are currently installed and under which mitigation mode
    they were produced. The invariant it maintains — checkable with
    {!well_linked} — is:

    {e every chain link in every installed trace points at the currently
    installed, mitigation-compatible translation of the stub's own
    [target_pc].}

    Eviction, invalidation and replacement all sever the affected links
    (in both directions) before the entry is dropped, so the pipeline can
    never chain into evicted or stale code.

    {1 Domain safety}

    Every public operation takes the cache's internal mutex, so installs,
    lookups, links and invalidations may race from any domain. The
    installation protocol for code produced off the owning domain is
    generation-tagged: capture {!generation} when the translation is
    planned, then {!insert_tagged} with it — the install is refused
    ([None]) if the pc was invalidated after that generation, so a
    translation planned against state that has since been invalidated can
    never resurrect stale code. See docs/CONCURRENCY.md. *)

type tier =
  | Block  (** first-pass, one-op-per-bundle, non-speculative *)
  | Trace  (** optimized trace from the full mitigation pipeline *)

(** The speculation discipline a translation was produced under, used to
    decide whether a chained transfer may bypass the dispatcher. *)
type code_mode =
  | Nonspec
      (** contains no speculative loads (first-pass blocks, adaptively
          de-speculated traces) — mode-neutral, chains from/to anything *)
  | Mitigated of Gb_core.Mitigation.mode
      (** speculates under the given GhostBusters mode; two speculating
          translations chain only when their modes are equal *)

type entry = {
  e_pc : int;  (** guest entry pc *)
  e_trace : Gb_vliw.Vinsn.trace;
  e_tier : tier;
  e_mode : code_mode;
  e_gen : int;
      (** generation counter, unique across the cache's lifetime; a
          re-translation of the same pc gets a fresh generation *)
  mutable e_stamp : int;  (** LRU stamp, maintained by {!find}/{!insert} *)
  e_lru : lru;
}

and lru
(** The entry's place in the cache's recency list, which keeps installed
    entries in stamp order so an eviction finds its victim in O(1). *)

type config = {
  capacity : int;
      (** capacity budget in VLIW bundles across both tiers. The budget
          may be exceeded transiently by a single entry larger than the
          whole budget (it still installs, alone). *)
  chain : bool;  (** allow {!link} to patch stubs at all *)
}

val default_config : config
(** Capacity 65536 bundles (large enough that the tier-1 suite never
    evicts); chaining on unless the [GHOSTBUSTERS_NO_CHAIN] environment
    variable is set (used by CI to run the whole suite dispatcher-only). *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable inserts : int;
  mutable evictions : int;  (** capacity evictions only, not replacements *)
  mutable chain_links : int;
  mutable chain_breaks : int;
}

type t

val create : ?obs:Gb_obs.Sink.t -> config -> t
(** [obs] (default {!Gb_obs.Sink.noop}) receives the [code_cache.*]
    counters ([hits], [misses], [evictions], [chain_links],
    [chain_breaks]), the [code_cache.bundles]/[code_cache.entries]
    gauges and {!Gb_obs.Event.Chain} / eviction events. *)

val config : t -> config

val stats : t -> stats

val set_on_evict : t -> (pc:int -> tier -> unit) -> unit
(** Hook fired for every {e capacity} eviction (not for explicit
    {!invalidate} or same-pc replacement). The engine uses it to reset
    the region's adaptive run/rollback/side-exit counters so a
    re-promoted region does not inherit stale adaptive state. *)

val find : t -> int -> entry option
(** Installed entry at a guest pc; counts a hit or miss and refreshes the
    LRU stamp. *)

val peek : t -> int -> entry option
(** Like {!find} but touches neither statistics nor recency. *)

val insert : t -> pc:int -> tier:tier -> mode:code_mode -> Gb_vliw.Vinsn.trace -> entry
(** Install a translation, evicting LRU entries until it fits. An
    existing entry at the same pc (tier promotion, retranslation) is
    replaced: unlinked and freed, but neither counted as an eviction nor
    reported to the [on_evict] hook. *)

val generation : t -> int
(** The cache-wide mutation generation: bumped by every install {e and}
    every removal (invalidation, eviction, same-pc replacement). Capture
    it before planning a translation off-path; pass it to
    {!insert_tagged}. *)

val insert_tagged :
  t ->
  gen:int ->
  pc:int ->
  tier:tier ->
  mode:code_mode ->
  Gb_vliw.Vinsn.trace ->
  entry option
(** Like {!insert}, but refuses ([None], installing nothing) when the pc
    was invalidated, evicted or replaced {e after} generation [gen] —
    i.e. when the state the translation was planned against is no longer
    current. The check and the install are one atomic step under the
    cache lock. *)

val invalidate : t -> int -> unit
(** Drop the entry at a pc, severing its chain links in both directions.
    No-op when absent; never fires the [on_evict] hook — this is the API
    adaptive retranslate/despec route through deliberately, because they
    manage their own counter resets. *)

val compatible : src:entry -> dst:entry -> bool
(** Whether [src] may transfer into [dst] without a dispatcher visit:
    non-speculative code is mode-neutral (it neither leaks speculative
    state of its own nor inherits any — the MCB is cleared and the
    audit's run window closed at every stub commit), so it chains from
    and to anything; two speculating translations must agree on their
    mitigation mode. *)

val link : t -> src:entry -> stub:int -> dst:entry -> bool
(** [link t ~src ~stub ~dst] patches stub [stub] of [src] to transfer
    directly into [dst], provided chaining is enabled, [dst]'s mode is
    compatible with [src]'s, and the stub's own [target_pc] equals
    [dst.e_pc] (a hard correctness requirement — it makes a stale caller
    unable to create a wrong-control-flow edge). Both tiers participate;
    the processor keeps block hot counters ticking by recording an entry
    on every chained transfer, so chained-into blocks still promote.
    Both endpoints are re-checked for liveness under the cache lock:
    if either was invalidated or replaced since the caller looked it up
    (a cross-domain race), the link is refused rather than planting a
    chain into dead code that no removal could ever break.
    Returns whether the link is in place afterwards; re-linking an
    already-linked stub is true and costless. *)

val used_bundles : t -> int

val entries : t -> entry list
(** All installed entries, unordered. *)

val occupancy : t -> tier -> int * int
(** [(live entries, live bundles)] of one tier. *)

val well_linked : t -> bool
(** The chaining invariant above: every chain link of every installed
    entry targets the currently installed trace object at its pc. Test
    hook; O(installed code). *)
