type t = { ring : Event.t Ring.t; metrics : Metrics.t; record_events : bool }

let create ?(events = true) () =
  (* A counters-only sink never pushes, so it does not pay for the
     ring's slot array. *)
  {
    ring = Ring.create ~capacity:(if events then 65536 else 1);
    metrics = Metrics.create ();
    record_events = events;
  }

let metrics t = t.metrics

let events_enabled t = t.record_events

let span ?(cat = "") ?(args = []) t ~track ~name ~start_s ~dur_s =
  if Float.is_nan dur_s || dur_s < 0.0 || dur_s = infinity then
    invalid_arg
      (Printf.sprintf "Sink.span: bad duration %g for %S" dur_s name);
  if t.record_events then
    Ring.push t.ring (Event.Span { track; name; cat; ts_s = start_s; dur_s; args })

let instant ?(cat = "") ?(args = []) t ~track ~name ~ts_s =
  if t.record_events then
    Ring.push t.ring (Event.Instant { track; name; cat; ts_s; args })

let sample t ~track ~name ~ts_s value =
  if t.record_events then
    Ring.push t.ring (Event.Counter { track; name; ts_s; value });
  Metrics.set t.metrics name value

let events t = Ring.to_list t.ring

let recorded t = Ring.pushed t.ring

let dropped t = Ring.dropped t.ring

let live_words t =
  (* Ring slot array (event payloads excluded — counters-only sinks
     never have any) plus the metrics registry estimate. *)
  Ring.capacity t.ring + 1 + 4 + Metrics.live_words t.metrics
