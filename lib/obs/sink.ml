type active = {
  metrics : Metrics.t;
  events : Event.t Ring.t;
  timers : Timer.t;
  attrib : Attrib.t option;
  mutable cycle_source : unit -> int64;
  mutable ring_warned : bool;
}

(* A recording sink: every operation is appended (reversed) as pure data
   and re-applied later with {!replay}. Translation backends running on
   worker domains record into one of these; the owning domain replays it
   at the install point. Because events carry no timestamp until replay
   and the simulated clock never advances during translation, a
   buffered-then-replayed stream is indistinguishable from direct
   recording at the replay point. *)
type op =
  | Op_incr of string * int
  | Op_gauge of string * float
  | Op_observe of string * float
  | Op_event of int * int * Event.kind  (* pc, region, kind *)
  | Op_span of string * int * float  (* phase, start (Timer.now_ns), dur_us *)

type buffered = { mutable ops : op list (* newest first *) }

type t = Noop | Active of active | Buffer of buffered

let noop = Noop

let create ?(ring_capacity = 65536) ?span_capacity ?seed ?(attrib = false) () =
  Active
    {
      metrics = Metrics.create ?seed ();
      events = Ring.create ring_capacity;
      timers = Timer.create ?span_capacity ();
      attrib = (if attrib then Some (Attrib.create ()) else None);
      cycle_source = (fun () -> 0L);
      ring_warned = false;
    }

let buffer () = Buffer { ops = [] }

let is_active = function Noop -> false | Active _ | Buffer _ -> true

let attrib = function Noop | Buffer _ -> None | Active a -> a.attrib

let set_cycle_source t f =
  match t with Noop | Buffer _ -> () | Active a -> a.cycle_source <- f

let event t ?(pc = 0) ?(region = 0) kind =
  match t with
  | Noop -> ()
  | Buffer b -> b.ops <- Op_event (pc, region, kind) :: b.ops
  | Active a ->
    Ring.push a.events { Event.kind; pc; region; cycle = a.cycle_source () };
    (* a wrapped ring silently forgets history: count every dropped event
       so truncated Chrome traces are detectable, and say so once *)
    if Ring.dropped a.events > 0 then begin
      Metrics.incr a.metrics "ring.dropped";
      if not a.ring_warned then begin
        a.ring_warned <- true;
        Printf.eprintf
          "ghostbusters: warning: event ring wrapped (capacity %d); oldest \
           events dropped, the exported Chrome trace will be truncated\n\
           %!"
          (Ring.capacity a.events)
      end
    end

let incr t ?by name =
  match t with
  | Noop -> ()
  | Buffer b -> b.ops <- Op_incr (name, Option.value ~default:1 by) :: b.ops
  | Active a -> Metrics.incr a.metrics ?by name

let set_gauge t name v =
  match t with
  | Noop -> ()
  | Buffer b -> b.ops <- Op_gauge (name, v) :: b.ops
  | Active a -> Metrics.set_gauge a.metrics name v

let observe t name v =
  match t with
  | Noop -> ()
  | Buffer b -> b.ops <- Op_observe (name, v) :: b.ops
  | Active a -> Metrics.observe a.metrics name v

let time t phase f =
  match t with
  | Noop -> f ()
  | Buffer b ->
    let start = Timer.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let dur_us = float_of_int (Timer.now_ns () - start) /. 1e3 in
        b.ops <- Op_span (phase, start, dur_us) :: b.ops)
      f
  | Active a -> Timer.time a.timers phase f

let replay src ~into =
  match src with
  | Noop | Active _ -> ()
  | Buffer b ->
    let ops = List.rev b.ops in
    b.ops <- [];
    List.iter
      (fun op ->
        match op with
        | Op_incr (name, by) -> incr into ~by name
        | Op_gauge (name, v) -> set_gauge into name v
        | Op_observe (name, v) -> observe into name v
        | Op_event (pc, region, kind) -> event into ~pc ~region kind
        | Op_span (phase, start, dur_us) -> (
          match into with
          | Active a -> Timer.add a.timers phase ~start ~dur_us
          | Buffer b' -> b'.ops <- Op_span (phase, start, dur_us) :: b'.ops
          | Noop -> ()))
      ops

let metrics = function Noop | Buffer _ -> None | Active a -> Some a.metrics

let counters = function
  | Noop | Buffer _ -> []
  | Active a -> Metrics.counters a.metrics

let events = function
  | Noop | Buffer _ -> []
  | Active a -> Ring.to_list a.events

let dropped_events = function
  | Noop | Buffer _ -> 0
  | Active a -> Ring.dropped a.events

let timer_totals = function
  | Noop | Buffer _ -> []
  | Active a -> Timer.totals a.timers

let metrics_json t =
  let module J = Gb_util.Json in
  match t with
  | Noop | Buffer _ -> J.Obj []
  | Active a ->
    (* sorted by phase name: {!Timer.totals} orders by wall-clock total,
       which varies run to run (and with worker interleaving) — dumps
       must diff stably *)
    let phases =
      List.map
        (fun { Timer.t_phase; t_calls; t_total_us } ->
          ( t_phase,
            J.Obj [ ("calls", J.Int t_calls); ("total_us", J.Float t_total_us) ]
          ))
        (List.sort
           (fun a b -> compare a.Timer.t_phase b.Timer.t_phase)
           (Timer.totals a.timers))
    in
    let base =
      match Metrics.to_json a.metrics with
      | J.Obj fields -> fields
      | other -> [ ("metrics", other) ]
    in
    J.Obj
      (base
      @ [
          ("host_phases", J.Obj phases);
          ( "events",
            J.Obj
              [
                ("retained", J.Int (Ring.length a.events));
                ("dropped", J.Int (Ring.dropped a.events));
              ] );
        ])

let trace_json t =
  match t with
  | Noop | Buffer _ -> Trace_export.to_json ~events:[] ~spans:[] ()
  | Active a ->
    Trace_export.to_json
      ~dropped:(Ring.dropped a.events)
      ~events:(Ring.to_list a.events)
      ~spans:(Timer.spans a.timers)
      ()
