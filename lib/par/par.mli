(** Deterministic domain-parallel execution (the [Hnlpu.Par] layer).

    Every multi-point evaluation in this repository — SLO rate sweeps,
    ablations, sensitivity tornados, GPU-equivalence scans, table
    generation — is embarrassingly parallel: independent points, pure
    simulation per point.  This module runs such sweeps across a
    fixed-size pool of OCaml 5 [Domain]s while keeping a hard guarantee:

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
    sequentially, so pools never wait on themselves. *)

val default_domains : unit -> int
(** Resolved pool width: [-j] override, else [HNLPU_DOMAINS], else
    [Domain.recommended_domain_count] (always at least 1).  Raises
    [Invalid_argument] when [HNLPU_DOMAINS] is set but not a positive
    integer — a malformed width must not silently run at full width. *)

val env_domains : unit -> int option
(** The [HNLPU_DOMAINS] override alone: [None] when unset or blank.
    Raises [Invalid_argument] on a malformed value ("0", "four", "-2"). *)

val set_default_domains : int -> unit
(** Force the default width (the CLI's [-j N]).  Raises
    [Invalid_argument] when [j < 1]. *)

val parallel_map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map f xs] = [List.map f xs], evaluated across [domains]
    (default {!default_domains}) with chunked work distribution and
    order-preserving collection.  [f] must be pure for the determinism
    guarantee to be meaningful.  If any task raises, the exception of the
    lowest-indexed failing task is re-raised after the region completes. *)

val parallel_init : ?domains:int -> int -> (int -> 'a) -> 'a array
(** [parallel_init n f] = [Array.init n f], parallelized as above. *)

val parallel_sweep :
  ?domains:int -> seed:int -> (Hnlpu_util.Rng.t -> 'a -> 'b) -> 'a list -> 'b list
(** Seeded sweep: task [i] receives [Rng.derive seed ~stream:i], an
    independent deterministic stream — Monte-Carlo points stay
    reproducible and domain-count-independent. *)

(** {1 Explicit pools}

    The combinators above share one lazily-created pool sized to the
    requested width (resized when the width changes, with the old pool's
    workers joined).  The shared pool registers an [at_exit] shutdown the
    first time it is created, so worker domains are always joined at
    process exit.  Long-running hosts that want explicit lifecycle control
    can manage their own. *)

type pool

val create : ?domains:int -> unit -> pool
(** [create ~domains:j] spawns [j - 1] worker domains; the calling domain
    is the j-th participant.  The returned record is the very record the
    workers captured — callers and workers share all mutable pool state.
    Raises [Invalid_argument] when [j < 1]. *)

val size : pool -> int
(** Total participants including the caller (i.e. [j]). *)

val live : pool -> bool
(** [false] once {!shutdown} has run. *)

val spawned_workers : pool -> int
(** Workers that have entered their service loop so far (at most
    [size pool - 1]; spawning is asynchronous).  Counted on the shared
    pool record itself — the regression probe for the historical bug where
    [create] returned a copy of the record the workers captured. *)

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
    that was shut down. *)

val shutdown : pool -> unit
(** Join all workers.  Idempotent.  Re-raises the exception of any worker
    that died of a runtime catastrophe (e.g. [Out_of_memory]) instead of
    swallowing it. *)
