type t = { ring : Event.t Ring.t; metrics : Metrics.t; record_events : bool }

let create ?(capacity = 65536) ?(events = true) () =
  (* A counters-only sink never pushes, so don't pay for the ring's
     slot array — this is what keeps per-domain shard sinks cheap
     enough to create per sweep point. *)
  let capacity = if events then capacity else 1 in
  {
    ring = Ring.create ~capacity;
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
  (* Stamped with sim time so shard merges resolve the gauge by latest
     sample, not by merge order. *)
  Metrics.set_stamped t.metrics ~stamp:ts_s name value

let merge_into ~into src =
  Ring.iter (Ring.push into.ring) src.ring;
  Metrics.merge_into ~into:into.metrics src.metrics

let events t = Ring.to_list t.ring

let recorded t = Ring.pushed t.ring

let dropped t = Ring.dropped t.ring

let live_words t =
  (* Ring slot array (event payloads excluded — counters-only sinks
     never have any) plus the metrics registry estimate. *)
  Ring.capacity t.ring + 1 + 4 + Metrics.live_words t.metrics
