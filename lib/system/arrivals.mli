(** Streaming request-trace generation for fleet-scale serving.

    The paper's TCO story compares HNLPU {e nodes} against GPU
    {e clusters}; exercising that comparison needs traces of 10⁶–10⁷
    requests, which must never exist as a materialized list.  This module
    is a {b pull-based cursor}: {!next} advances the generator by one
    request and overwrites the cursor's current-request fields in place —
    zero minor-heap words per request ({!next} is an ALLOC-HOT Leaf hot
    path, see [Lint_config]), so a 10⁷-request trace costs the same
    memory as a 10-request one.

    Three arrival processes:

    - [Poisson]: homogeneous rate λ (the classic open-loop model);
    - [Diurnal]: a nonhomogeneous Poisson process with sinusoidal rate
      [λ(t) = mean · (1 + amplitude · sin (2πt/period))], sampled exactly
      by Lewis–Shedler thinning — the day/night swing of a user-facing
      fleet, compressed to simulation scale;
    - [Mmpp]: a Markov-modulated Poisson process — the cursor dwells in
      one of [k] rate states (exponential dwell, uniform switch to
      another state) and emits Poisson arrivals at that state's rate;
      the standard model for bursty traffic whose variance exceeds
      Poisson.

    and two token-length families:

    - [Geometric]: exponential with mean [m], shifted to at least 1;
    - [Pareto]: heavy tail, [P(X > x) = (xmin/x)^alpha] truncated to
      [cap] — the long-context/agentic tail that stresses load-balancing
      policies (a few requests carry most of the tokens when
      [alpha < 2]).

    Everything is driven by an explicit seed and stream through
    {!Hnlpu_util.Rng}, so a cursor restarted from the same seed and
    stream replays the identical trace (property-tested).  Distinct
    streams of one seed are independent substreams: {!Fleet} gives each
    shard its own, at [1/shards] of the rate, so every request is drawn
    once, by the shard that routes it. *)

type length_dist =
  | Geometric of { mean : int }
  | Pareto of { alpha : float; xmin : float; cap : int }

type process =
  | Poisson of { rate_per_s : float }
  | Diurnal of { mean_rate_per_s : float; amplitude : float; period_s : float }
  | Mmpp of { rates_per_s : float array; mean_dwell_s : float }

type spec = {
  process : process;
  prefill : length_dist;
  decode : length_dist;
  users : int;  (** User-id pool size (uniform draw per request). *)
}

val chat : rate_per_s:float -> spec
(** Chat-shaped default: Poisson arrivals, geometric 128-token prompts
    and decodes, 10,000 users. *)

val mean_rate_per_s : spec -> float
(** Long-run request rate of the process: λ for [Poisson], the mean for
    [Diurnal] (the sinusoid averages out), the stationary mean of the
    state rates for [Mmpp] (uniform dwell ⇒ uniform stationary law). *)

val with_mean_rate : spec -> float -> spec
(** Same process shape rescaled to the given long-run rate — how
    {!Fleet.sweep} walks a capacity frontier without changing the
    process's character.  Raises [Invalid_argument] unless every
    resulting rate is positive and finite. *)

val mean_tokens : length_dist -> float
(** Expected tokens per request (cap ignored; [infinity] for a Pareto
    tail with [alpha <= 1]) — used to size default offered rates against
    fleet capacity. *)

val validate : spec -> unit
(** Raises [Invalid_argument] on a spec {!create} would reject: among
    others, any process rate that is not positive and finite. *)

type t
(** A cursor.  Mutable; not thread-safe — each {!Fleet} shard owns one. *)

val create : ?stream:int -> seed:int -> spec -> t
(** A cursor over substream [stream] (default 0) of [seed].  Arrival
    gaps, thinning, lengths and users draw from
    [Rng.derive seed ~stream]; stream 0 is the historical single-trace
    generator.

    An [Mmpp] cursor draws its modulating chain (initial state, dwell
    times, switches) from a second generator, [Rng.create seed], which
    depends on the seed alone: every stream of one seed walks the same
    chain, switching state at the same instants, whatever its rates —
    so [s] streams at [1/s] of the rate superpose to one MMPP at the full
    rate.  The chain costs one draw per state switch, not per request.

    Validates the spec ([Invalid_argument] on nonpositive rates, means,
    amplitude outside [0,1), alpha <= 0, empty MMPP, users < 1, a
    negative [stream]). *)

val next : t -> unit
(** Advance to the next request, overwriting the current-request fields
    below.  Allocates nothing (ALLOC-HOT Leaf). *)

val arrival_s : t -> float
(** Arrival time of the current request (monotone nondecreasing). *)

type clock = private { mutable arrival_s : float }
(** The cursor's published arrival time as an all-float cell: reading a
    field of an all-float record is a flat load, so a hot loop that
    binds {!clock} once pays nothing per request, where a non-inlined
    {!arrival_s} call boxes its float return (~2 words/request —
    {!Fleet} reads the clock [shards] times per request). *)

val clock : t -> clock
(** The cell {!next} writes the arrival time into.  Stable for the
    cursor's lifetime; contents change on every {!next}. *)

val prefill_tokens : t -> int
(** Prompt tokens of the current request (at least 1). *)

val decode_tokens : t -> int
(** Decode tokens of the current request (at least 1). *)

val user : t -> int
(** User id of the current request, in [\[0, users)]. *)

val mmpp_state : t -> int
(** Index of the [Mmpp] rate state the cursor dwells in (0 for the other
    processes). *)
