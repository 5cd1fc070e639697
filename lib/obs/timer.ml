type span = { sp_phase : string; sp_start_us : float; sp_dur_us : float }

type acc = { mutable calls : int; mutable total_us : float }

type t = {
  origin : int;  (** {!now_ns} at creation *)
  totals : (string, acc) Hashtbl.t;
  spans : span Ring.t;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let create ?(span_capacity = 8192) () =
  { origin = now_ns (); totals = Hashtbl.create 16; spans = Ring.create span_capacity }

let add t phase ~start ~dur_us =
  (match Hashtbl.find_opt t.totals phase with
  | Some a ->
    a.calls <- a.calls + 1;
    a.total_us <- a.total_us +. dur_us
  | None -> Hashtbl.add t.totals phase { calls = 1; total_us = dur_us });
  Ring.push t.spans
    {
      sp_phase = phase;
      sp_start_us = float_of_int (start - t.origin) /. 1e3;
      sp_dur_us = dur_us;
    }

let time t phase f =
  let start = now_ns () in
  Fun.protect
    ~finally:(fun () ->
      add t phase ~start ~dur_us:(float_of_int (now_ns () - start) /. 1e3))
    f

type total = { t_phase : string; t_calls : int; t_total_us : float }

let totals t =
  Hashtbl.fold
    (fun phase a acc ->
      { t_phase = phase; t_calls = a.calls; t_total_us = a.total_us } :: acc)
    t.totals []
  |> List.sort (fun a b -> compare (b.t_total_us, a.t_phase) (a.t_total_us, b.t_phase))

let spans t = Ring.to_list t.spans

let dropped_spans t = Ring.dropped t.spans
