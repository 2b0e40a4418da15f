(** Streaming and batch descriptive statistics.

    Used by the workload simulators (latency percentiles, occupancy) and by
    the benchmark harness to summarize series. *)

type t
(** Accumulator over a stream of floats (Welford's algorithm). *)

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** Mean of the observations; [nan] when empty. *)

val variance : t -> float
(** Unbiased sample variance; [nan] with fewer than two observations. *)

val stddev : t -> float

val min : t -> float

val max : t -> float

val total : t -> float

val percentile : float array -> float -> float
(** [percentile samples p] with [p] in [\[0,1\]]: linear-interpolated
    percentile of an unsorted sample array (the array is not modified).
    An empty sample array yields [nan] — absent data is a value, not a
    crash, so report paths degrade gracefully.  A singleton returns its
    one element for every [p].  [p] outside [\[0,1\]] (including NaN)
    raises [Invalid_argument] even on empty input; a NaN {e sample}
    raises [Invalid_argument] too — a NaN measurement means the
    instrumentation is broken, and any sorted-rank answer over it would
    be arbitrary. *)

val histogram : float array -> bins:int -> (float * int) array
(** [histogram samples ~bins] buckets samples into [bins] equal-width bins
    over the sample range; returns (bin lower edge, count).  Empty input
    yields [\[||\]]; [bins <= 0] raises [Invalid_argument]. *)
