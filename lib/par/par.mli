(** Deterministic domain-parallel execution (the [Hnlpu.Par] layer).

    The fleet's shards and sweeps, SLO rate sweeps, the POPCNT-slack
    Monte-Carlo, the quantization evaluation and table generation are
    embarrassingly parallel: independent points, pure simulation per
    point, about a millisecond or more per sweep.  (The closed-form
    sweeps take microseconds; they are plain maps and never reach this
    module.)  This module runs such sweeps across a fixed-size pool of
    OCaml 5 [Domain]s while keeping a hard guarantee:

    {b results are byte-identical regardless of the domain count.}

    The guarantee holds because (1) each task writes only its own index
    slot and reduction happens in index order on the calling domain,
    (2) seeded tasks derive an independent {!Hnlpu_util.Rng} from their
    index (never from a shared stream), and (3) [j = 1] takes the exact
    sequential code path — no pool, no atomics — so parallelism is purely
    an execution-order change that the determinism tests pin down.

    The default width comes from, in priority order:
    {!set_default_domains} (the CLI's [-j]), the [HNLPU_DOMAINS]
    environment variable, then [Domain.recommended_domain_count].
    Nested parallel regions (a task calling back into this module) run
    sequentially, so pools never wait on themselves.

    A width is at most 128, the OCaml runtime's domain limit per process
    (the calling domain included).  Every entry point below that takes a
    width raises [Invalid_argument] naming that limit for a wider one,
    before it spawns any domain. *)

val default_domains : unit -> int
(** Resolved pool width: [-j] override, else [HNLPU_DOMAINS], else
    [Domain.recommended_domain_count] (always at least 1).  Raises
    [Invalid_argument] when [HNLPU_DOMAINS] is set but not a positive
    integer — a malformed width must not silently run at full width. *)

val env_domains : unit -> int option
(** The [HNLPU_DOMAINS] override alone: [None] when unset or blank.
    Raises [Invalid_argument] on a malformed value ("0", "four", "-2")
    or one above 128. *)

val set_default_domains : int -> unit
(** Force the default width (the CLI's [-j N]).  Raises
    [Invalid_argument] when [j < 1] or [j > 128]. *)

val parallel_map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map f xs] = [List.map f xs], evaluated across [domains]
    (default {!default_domains}) with chunked work distribution and
    order-preserving collection.  [f] must be pure for the determinism
    guarantee to be meaningful.  If any task raises, the exception of the
    lowest-indexed failing task is re-raised after the region completes. *)

val parallel_init : ?domains:int -> int -> (int -> 'a) -> 'a array
(** [parallel_init n f] = [Array.init n f], parallelized as above: at
    width 1, for [n <= 1] or from inside a task it is [Array.init];
    otherwise all [n] tasks go to the pool at once. *)

(** {1 The shared pool}

    The combinators above share one lazily-created pool sized to the
    requested width.  A call at another width resizes it: the old pool's
    workers are joined and the old pool refuses further work.  The shared
    pool registers an [at_exit] shutdown the first time it is created, so
    worker domains are always joined at process exit. *)

type pool

val shared : ?domains:int -> unit -> pool
(** The process-wide shared pool at the given width (default
    {!default_domains}), creating or resizing it as needed.  Two calls at
    the same width return the physically same pool.  Main-domain only. *)

val run_tasks : pool -> tasks:int -> (int -> unit) -> unit
(** Low-level entry: evaluate [f 0 .. f (tasks-1)], each exactly once,
    distributed in guided self-scheduled chunks (coarse first grabs,
    single-task tail); returns when all completed.  If any task raises,
    the region still runs every task, then re-raises the lowest-indexed
    failure with its backtrace.  From inside a worker (nested region) it
    degrades to a sequential loop.  Raises [Invalid_argument] on a pool
    that a resize or process exit has shut down. *)
