(** Batch percentiles of a sample array.

    The benchmark harness and the [chat_serving] example summarize latency
    series with it; [Hnlpu_obs.Sketch.quantile] mirrors its rank
    arithmetic. *)

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
