(** Telemetry events over {e simulated} time.

    Every event carries a {!track}: the (process, thread) pair it renders
    on in a Chrome trace viewer.  Subsystems use the process name
    ("scheduler", "pipeline", "noc", "thermal") and one thread per logical
    lane (a request, a pipeline-stage slot, a chip), so a combined trace
    shows each simulator as its own swim-lane group on one timeline.

    Timestamps are simulated seconds; the exporters convert to the
    microseconds Chrome's trace-event format expects. *)

type track = { process : string; thread : string }

val track : process:string -> thread:string -> track

type arg = S of string | I of int | F of float
(** Typed span/event annotations ("args" in the trace-event format). *)

type t =
  | Span of {
      track : track;
      name : string;
      cat : string;
      ts_s : float;      (** Start, simulated seconds. *)
      dur_s : float;     (** Duration, simulated seconds (>= 0). *)
      args : (string * arg) list;
    }  (** A complete ("X"-phase) duration event. *)
  | Instant of {
      track : track;
      name : string;
      cat : string;
      ts_s : float;
      args : (string * arg) list;
    }  (** A point-in-time marker. *)
  | Counter of { track : track; name : string; ts_s : float; value : float }
      (** One sample of a time series (queue depth, busy slots, ...). *)

val ts_s : t -> float
(** Start timestamp of any event kind. *)

val end_s : t -> float
(** End timestamp: [ts_s + dur_s] for spans, [ts_s] otherwise. *)
