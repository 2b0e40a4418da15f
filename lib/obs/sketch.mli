(** Bounded-memory streaming quantile sketch.

    A fixed-bucket base-2 log-histogram: constant memory however many
    samples it absorbs, fully deterministic (no sampling, no randomness,
    no libm — a bucket index is integer arithmetic on the sample's
    IEEE-754 bits, so the state is a pure function of the
    observation multiset plus the exact [sum]/[min]/[max] scalars), and
    mergeable.  This is what lets the telemetry layer survive 10⁸-event
    serving runs: every {!Hnlpu_obs.Metrics} histogram is one of these
    instead of retained raw samples.

    {2 Bucket layout}

    Each binary octave [\[2{^e}, 2{^e+1})] for [e] in [\[-64, 64)] is
    split into 32 linear sub-buckets (4096 buckets per sign, the
    negative side allocated only when a negative sample arrives).  Each
    bucket count is an unsigned 32-bit counter, so one sign's buckets
    take 16 KB (2,050 heap words) and a sketch with only non-negative
    samples retains 2,064 words ({!live_words}).  A bucket holds at most
    [2{^32} - 1] samples: an {!observe} or {!merge_into} that would pass
    that raises [Invalid_argument] and leaves the sketch unchanged,
    rather than wrap.  The zero and overflow buckets and {!count} are
    native ints with no such limit.
    Magnitudes below [2{^-64}] collapse into a single zero bucket whose
    representative is [0.]; magnitudes at or above [2{^64}] (including
    infinities) land in a per-sign overflow bucket represented by the
    exact observed {!min}/{!max}.

    {2 Error bound}

    Every bucket representative [r] of a sample [x] with
    [2{^-64} <= |x| < 2{^64}] satisfies [|r - x| <= |x| / 64]
    ({!relative_error} [= 1/64 ~ 1.6%]), and representatives are clamped
    into the exact observed [\[min, max\]].  {!quantile} mirrors
    {!Hnlpu_util.Stats.percentile}'s rank arithmetic (linear
    interpolation between the bracketing order statistics at rank
    [p*(n-1)]), substituting bucket representatives for the order
    statistics, so for any sample multiset whose bracketing order
    statistics are [x_lo <= x_hi] with interpolation weight [f]:

    [|quantile t p - percentile samples p|
       <= relative_error *. ((1-f) *. |x_lo| +. f *. |x_hi|) +. 2e-20]

    (the additive [2{^-64} ~ 5.4e-20] term covers the zero bucket).
    For non-negative samples — every latency, byte count and token count
    in this repository — that is a plain relative error:
    [|q̂ - q| <= relative_error *. q +. 2{^-64}].  Overflow-bucket
    samples ([|x| >= 2{^64}]) void the bound; nothing physical
    measured in seconds, bytes or tokens gets there. *)

type t

val relative_error : float
(** [1/64]: the per-sample relative half-width of a log bucket. *)

val create : unit -> t

val observe : t -> float -> unit
(** Absorb one sample in O(1) with zero minor-heap allocation
    (the ALLOC-HOT lint gates this — see [Lint_config]).  Raises
    [Invalid_argument] on a NaN sample: an instrumented NaN means the
    instrumentation itself is broken, which must not pass silently.
    Also raises [Invalid_argument] if the sample's bucket already holds
    [2{^32} - 1] samples. *)

val observe_block : t -> Float.Array.t -> int -> unit
(** [observe_block t cells k] observes [cells.(0)], ..., [cells.(k-1)] in
    that order, exactly as [k] calls of {!observe} would: the same
    buckets, [count], [min], [max] and the same float sum, added in the
    same order.  No float crosses a call: a computed float passed to
    {!observe} from another module is boxed at the call site, one stored
    into a [Float.Array.t] is not.  Hot loops collect a block of samples
    and hand it over with one call, allocating nothing per event.  A NaN
    or a full bucket at [cells.(i)] raises as {!observe} would, after
    [cells.(0)] to [cells.(i-1)] are absorbed.  Raises [Invalid_argument]
    unless [0 <= k <= Float.Array.length cells]. *)

val bucket_index : float -> int
(** [bucket_index v] is the bucket of [|v|] within one sign's 4096,
    for [2{^-64} <= |v| < 2{^64}]: [32 * (e + 64) + s] where
    [2{^e} <= |v| < 2{^e+1}] and [s = trunc ((|v| / 2{^e} - 1) * 32)].
    Outside that range the result is meaningless. *)

val count : t -> int

val mean : t -> float
(** Running sum (float addition in observation order) over [count];
    [nan] when empty. *)

val min_v : t -> float
(** Exact smallest observation; [infinity] when empty. *)

val max_v : t -> float
(** Exact largest observation; [neg_infinity] when empty. *)

val quantile : t -> float -> float
(** [quantile t p] with [p] in [\[0,1\]]: the sketch estimate of
    {!Hnlpu_util.Stats.percentile} at [p], within the error bound above.
    Empty sketch yields [nan]; [p] outside [\[0,1\]] (including NaN)
    raises [Invalid_argument] — mirroring [Stats.percentile] exactly so
    the two are drop-in interchangeable. *)

val merge_into : into:t -> t -> unit
(** Fold [src]'s state into [into] ([src] may be [into] itself).  Raises
    [Invalid_argument], leaving [into] unchanged, if a merged bucket
    would hold more than [2{^32} - 1] samples.  Bucket counts, [count], [min] and
    [max] merge commutatively — any merge order yields identical buckets
    and therefore identical quantiles.  [sum] (and hence [mean]) is
    float addition of the two partial sums, so byte-identical [mean]
    additionally requires a fixed merge order; every caller in this
    repository merges shards in task-index order (the {!Hnlpu_par.Par}
    convention). *)

val live_words : t -> int
(** Heap words retained by this sketch (scalar fields plus bucket
    counters): 2,064 with one sign's counters, 4,112 with both — equal to
    [Obj.reachable_words].  Constant in the sample count, so telemetry
    memory stays flat while request counts grow. *)

val to_json : t -> string
(** Strict-JSON summary via {!Json}: [{"count": .., "mean": .., "min":
    .., "max": .., "p50": .., "p95": .., "p99": .., "error_bound": ..,
    "buckets": ..}] where ["buckets"] is the number of non-empty
    buckets.  Same inputs produce byte-identical output. *)
