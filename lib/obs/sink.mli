(** The telemetry sink simulators record into.

    Simulators take an optional [?obs : Sink.t]; when absent they skip all
    recording (the call sites pattern-match on [None] before building any
    event), so instrumentation costs nothing when off and results are
    bit-identical to the uninstrumented path.  When present, spans and
    samples land in a bounded {!Ring} of {!Event.t} and aggregates in a
    {!Metrics} registry, both exportable after the run. *)

type t

val create : ?capacity:int -> ?events:bool -> unit -> t
(** A fresh sink retaining at most [capacity] (default 65,536) events.

    [~events:false] makes a {b counters-only} sink: {!span}, {!instant}
    and the timeline half of {!sample} become no-ops (no event record is
    ever allocated, and the ring shrinks to one slot) while the
    {!metrics} registry keeps aggregating.  Parallel sweeps use this for
    their private per-task sinks when the caller's sink is itself
    counters-only, so per-point span records are never built just for a
    merge to discard them. *)

val metrics : t -> Metrics.t

val events_enabled : t -> bool
(** [false] for a counters-only sink (created with [~events:false]). *)

val span :
  ?cat:string -> ?args:(string * Event.arg) list -> t ->
  track:Event.track -> name:string -> start_s:float -> dur_s:float -> unit
(** Record a completed span.  Raises [Invalid_argument] on a negative or
    non-finite duration — a malformed span means the instrumentation
    itself is wrong, which must not pass silently. *)

val instant :
  ?cat:string -> ?args:(string * Event.arg) list -> t ->
  track:Event.track -> name:string -> ts_s:float -> unit

val sample : t -> track:Event.track -> name:string -> ts_s:float -> float -> unit
(** One counter-series sample on the timeline; also mirrors the latest
    value into {!metrics} as a gauge under the same name, stamped with
    [ts_s] so shard merges resolve by sim time rather than merge
    order. *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into src] appends [src]'s retained events (oldest first)
    to [into]'s ring and folds its metrics in via
    {!Metrics.merge_into}.  Parallel sweeps give each task a private sink
    and merge them in task-index order afterwards, so the combined
    timeline and registry are identical whatever the domain count. *)

val events : t -> Event.t list
(** Retained events, oldest first. *)

val recorded : t -> int
(** Total events ever recorded (retained + dropped). *)

val dropped : t -> int
(** Events evicted by the ring bound. *)

val live_words : t -> int
(** Estimated heap words retained by this sink: ring slots (event
    payloads excluded) plus {!Metrics.live_words}.  The telemetry-memory
    number the fleet benchmark's flatness gate compares across trace
    lengths. *)
