(** Deterministic pseudo-random number generation.

    A small, self-contained SplitMix64 generator.  Every stochastic component
    of the simulators (synthetic weights, workload generators, Monte-Carlo
    yield experiments) takes an explicit [Rng.t] so that runs are reproducible
    and independent streams can be split without correlation. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from a 63-bit seed. *)

val copy : t -> t
(** Independent copy sharing no state with the original. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val derive : int -> stream:int -> t
(** [derive seed ~stream:i] is a generator for the [i]-th independent
    stream of [seed], computed from the pair alone — no shared state is
    advanced, so parallel tasks can each derive their own stream from
    their index and stay deterministic under any domain count.  [stream]
    must be non-negative. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val bits53 : t -> int
(** 53 uniform bits as an immediate int: the top 53 bits of the next
    64-bit output, the allocation-free draw primitive.  [float t b]
    equals [float_of_int (bits53 t) /. 2.0 ** 53.0 *. b].  Hot paths in
    other modules draw through [bits53]: an immediate-int return never
    allocates, while a cross-module [float] call boxes its result (no
    module is inlined into another under the dev profile's [-opaque]). *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val gaussian : t -> float
(** Standard normal deviate (Box–Muller). *)

val exponential : t -> float -> float
(** [exponential t rate] samples Exp(rate).  [rate] must be positive and
    finite; NaN and infinity raise [Invalid_argument]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
