(** Named-metric registry: counters, gauges and histograms.

    Names are free-form but the convention is "subsystem/metric"
    ("scheduler/ttft_s", "noc/bytes_sent").  A name is bound to one kind on
    first use; mixing kinds under one name raises [Invalid_argument], which
    catches instrumentation typos at the call site.

    Histograms feed a bounded-memory deterministic {!Sketch} — constant
    words per series however many samples arrive, p50/p95/p99 within the
    sketch's documented error bound (1/64 relative) of the exact
    {!Hnlpu_util.Stats.percentile}.

    The per-event entry points ([incr], [set], [observe]) are
    ALLOC-HOT lint hot paths: once a series exists, recording into it
    allocates nothing. *)

type t

val create : unit -> t

val incr : t -> ?by:float -> string -> unit
(** Monotonic counter; [by] defaults to 1. *)

val set : t -> string -> float -> unit
(** Gauge: the last write wins. *)

val observe : t -> string -> float -> unit
(** Histogram sample into the name's sketch.  Raises [Invalid_argument]
    on a NaN sample. *)

val hist : t -> string -> Sketch.t
(** The name's histogram sketch, registered empty on first use — the
    handle for recording a whole batch at once (e.g. a
    {!Sketch.merge_into} of a run's already-aggregated sketch) instead
    of one {!observe} per sample.  Raises [Invalid_argument] if [name]
    is already bound to another kind. *)

val counter : t -> string -> float option

val gauge : t -> string -> float option

type summary = {
  count : int;
  mean : float;
  min_v : float;
  max_v : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val histogram : t -> string -> summary option
(** Percentiles are sketch estimates, within the documented bound. *)

val names : t -> string list
(** All registered names, sorted (exports are deterministic). *)

val live_words : t -> int
(** Estimated heap words retained by the registry (series payloads,
    names, nominal table overhead).  Flat however many samples the
    histograms absorb. *)

val to_json : t -> string
(** [{"counters": {..}, "gauges": {..}, "histograms": {name: {"count": ..,
    "mean": .., "min": .., "max": .., "p50": .., "p95": .., "p99": ..}}}],
    keys sorted. *)

val to_table : t -> Hnlpu_util.Table.t
(** Human-readable rendering: one row per metric, histograms summarized as
    count/mean/p50/p95/p99. *)
