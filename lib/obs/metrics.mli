(** Named-metric registry: counters, gauges and histograms.

    Names are free-form but the convention is "subsystem/metric"
    ("scheduler/ttft_s", "noc/bytes_sent").  A name is bound to one kind on
    first use; mixing kinds under one name raises [Invalid_argument], which
    catches instrumentation typos at the call site.

    Histograms feed a bounded-memory deterministic {!Sketch} — constant
    words per series however many samples arrive, p50/p95/p99 within the
    sketch's documented error bound (1/64 relative) of the exact
    {!Hnlpu_util.Stats.percentile}.

    The per-event entry points ([incr], [set_stamped], [observe]) are
    ALLOC-HOT lint hot paths: once a series exists, recording into it
    allocates nothing. *)

type t

val create : unit -> t

val incr : t -> ?by:float -> string -> unit
(** Monotonic counter; [by] defaults to 1. *)

val set : t -> string -> float -> unit
(** Gauge, unstamped: last-write-wins locally, stamp [neg_infinity]
    (so any stamped write dominates it in a merge). *)

val set_stamped : t -> stamp:float -> string -> float -> unit
(** Gauge set carrying a sim-time stamp.  Simulators stamp every gauge
    write with the simulated time of the event, so {!merge_into} can
    resolve the same gauge across domain shards by latest stamp instead
    of by merge order. *)

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

val gauge_stamp : t -> string -> float option
(** The sim-time stamp of the gauge's current value ([neg_infinity] if
    it has only ever been set unstamped). *)

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

val merge_into : into:t -> t -> unit
(** [merge_into ~into src] folds [src] into [into]: counters add; gauges
    resolve by latest stamp (ties to the larger value), so shard-merge
    order cannot change the result; sketch histograms merge bucket-wise
    (quantiles/count/min/max independent of merge order; only the
    float-added [sum]/[mean] still want the fixed task-index order all
    callers use).  Names are visited sorted.  Raises [Invalid_argument]
    if a name is bound to different kinds in the two registries. *)

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
