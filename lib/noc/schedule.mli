(** Collectives and their step-by-step transfer plans: who sends what to
    whom, when.

    This module is the one place that says what a collective is: its
    plan ({!canonical}), who holds a value before step 0, how receivers
    merge at each step, and which chips must end with the result
    ({!semantics}).  Signoff checks plans against it (the NOC rules and
    the static passes).  One step engine interprets plans: {!run} on
    values and {!run_symbolic} on origin multisets.

    Conventions match the Interconnect Engine model: each chip owns one
    transmit and one receive port per *link* (parallel-link engine), so a
    star reduce completes in one step (the root merges incoming streams),
    an all-gather takes one step (every member sends its shard to each
    peer), an all-reduce is reduce-then-broadcast (2 steps), and the
    16-chip all-reduce is hierarchical (column phase then row phase,
    4 steps). *)

type transfer = { src : Topology.chip; dst : Topology.chip; bytes : int }

type step = transfer list
(** Transfers within a step run in parallel. *)

type t = step list

(** {1 Collectives} *)

(** A declared collective.  Payloads are per transfer: [bytes] for the
    whole value, [shard_bytes] for one member's shard. *)
type collective =
  | Reduce of { root : Topology.chip; group : Topology.chip list; bytes : int }
  | Broadcast of { root : Topology.chip; group : Topology.chip list; bytes : int }
  | All_reduce of { group : Topology.chip list; bytes : int }
  | All_gather of { group : Topology.chip list; shard_bytes : int }
  | Scatter of { root : Topology.chip; group : Topology.chip list; shard_bytes : int }
  | All_chip_all_reduce of { bytes : int }
      (** The hierarchical 16-chip all-reduce. *)

val members : collective -> Topology.chip list
(** The declared group (all 16 chips for [All_chip_all_reduce]). *)

val malformed : collective -> string list
(** Why the declaration has no plan: an empty group, a chip off the
    fabric or listed twice, a root outside the group, a negative payload.
    Empty exactly when {!canonical} accepts it. *)

val canonical : collective -> t
(** The reference plan: a one-step star for reduce, broadcast and
    scatter; reduce-then-broadcast rooted at the lowest chip for an
    all-reduce; one step of k(k-1) transfers for an all-gather of k
    members (each to each peer, in ascending-id order); and for the
    all-chip all-reduce, the all-reduces of all four columns
    concurrently, then of all four rows.  Raises [Invalid_argument] when
    {!malformed} is not empty. *)

val all_reduce : group:Topology.chip list -> bytes:int -> t
(** {!canonical} of [All_reduce]. *)

type merge_mode =
  | Accumulate  (** Receivers add incoming payloads to their state. *)
  | Overwrite   (** Receivers replace their state with the incoming
                    payload; same-step writes to one chip resolve to the
                    lowest sender. *)
  | Union       (** Receivers keep one copy per origin (all-gather: a
                    shard the receiver already holds adds nothing). *)

type semantics = {
  producers : Topology.chip list;
      (** Hold one copy of their own value before step 0: the whole group,
          or just the root of a broadcast or scatter. *)
  mode : int -> merge_mode;
      (** Per step index.  Reduces accumulate; broadcasts and scatters
          overwrite; an all-reduce accumulates on step 0 and overwrites
          after; the all-chip all-reduce accumulates on steps 0 and 2 and
          overwrites on 1 and 3; an all-gather takes unions. *)
  required : Topology.chip list;
      (** Must each end with one copy of every producer's value: the root
          of a reduce, the peers of a broadcast or scatter, every member
          otherwise. *)
}

val semantics : collective -> semantics

(** {1 Cost} *)

val makespan : ?link:Link.t -> t -> float
(** Sum over steps of the slowest transfer (plus per-step engine
    overheads), zero for an empty plan. *)

val transfer_count : t -> int

val total_bytes : t -> int
(** Sum of every transfer's payload over the whole plan. *)

(** {1 Symbolic execution}

    The static counterpart of {!run}: instead of real vectors, every
    chip's state is a multiset of {e origin contributions} ("one copy of
    chip 4's partial"), and a plan is executed step by step under a
    per-step merge mode.  This is what the NOC-DEFUSE signoff rule runs —
    it sees read-before-write, same-step write races and dead transfers
    that byte conservation (NOC-BYTES) is blind to, without touching any
    values. *)

type delivery = {
  d_step : int;
  d_index : int;  (** Position in plan order — the key into {!symbolic.live}. *)
  d_src : Topology.chip;
  d_dst : Topology.chip;
  d_bytes : int;
}

type symbolic = {
  finals : (Topology.chip * (Topology.chip * int) list) list;
      (** Per chip (sorted): the final contribution multiset as sorted
          [(origin, count)] pairs.  A clean all-reduce member ends with
          every group member exactly once. *)
  live : (Topology.chip * int list) list;
      (** Per chip: indices of the deliveries whose payload survives into
          the chip's final state (transitively through forwarding).  A
          delivery in nobody's live set is dead weight on the fabric. *)
  unwritten_reads : delivery list;
      (** Transfers whose source had been written by no earlier step (and
          is not a producer) — the sender forwards garbage. *)
  overwrite_races : (int * Topology.chip * int) list;
      (** [(step, dst, writers)]: several same-step [Overwrite] deliveries
          race for one chip's slot; the lowest sender wins, but the
          plan's intent is ambiguous. *)
  deliveries : delivery list;  (** Every transfer, in plan order. *)
}

val run_symbolic : collective -> t -> symbolic
(** Execute a plan of the collective on contribution multisets: its
    {!semantics} producers start with their own value, and each step
    merges under its mode, in the step engine {!run} uses. *)

(** {1 Execution on values} *)

val run :
  ?plan:t -> ?obs:Hnlpu_obs.Sink.t ->
  collective -> Collective.valued -> Collective.valued
(** Execute a plan of [collective] transfer by transfer on real vectors
    and return the per-chip results in the order of [vals].  Every chip of
    [vals] starts with its vector.  Each step reads start-of-step state,
    then applies its deliveries in plan order under the collective's
    {!semantics} [mode]: [Accumulate] adds, [Overwrite] replaces (the
    lowest sender wins a same-step race).  [Union] steps raise
    [Invalid_argument]: an all-gather merges shards, not vectors.  [plan]
    defaults to {!canonical}; passing a user plan lets signoff diff what
    the plan {e computes} against the mathematical sum (the NOC-EXEC
    rule).  Before each step runs, both endpoints of every transfer must
    be chips of [vals]: a transfer that leaves the group raises
    [Invalid_argument] naming the transfer.

    [obs] records one span per transfer — on the sending chip's track,
    tagged with bytes, step index and destination — timed with
    {!Link.cxl3} from time 0 so the stream agrees with {!makespan}; per-plan byte/transfer counters and a makespan gauge
    land in the metrics registry.  Values computed are unaffected. *)

val run_all_reduce :
  ?plan:t -> group:Topology.chip list -> Collective.valued -> Collective.valued
(** {!run} of [All_reduce] over [group]: every chip ends with
    {!Collective.sum} (tested). *)
