(** Explicit collective schedules: who sends what to whom, when.

    This module materializes the step-by-step transfer plans of the
    collectives so they can be checked
    against the fabric (every transfer must ride an existing row/column
    link; port limits respected) and executed on values (the reduction a
    plan computes must equal the mathematical collective).

    Conventions match the Interconnect Engine model: each chip owns one
    transmit and one receive port per *link* (parallel-link engine), so a
    star reduce completes in one step (the root merges incoming streams),
    an all-reduce is reduce-then-broadcast (2 steps), the ring all-gather
    takes group-1 steps, and the 16-chip all-reduce is hierarchical
    (column phase then row phase, 4 steps). *)

type transfer = { src : Topology.chip; dst : Topology.chip; bytes : int }

type step = transfer list
(** Transfers within a step run in parallel. *)

type t = step list

val reduce : root:Topology.chip -> group:Topology.chip list -> bytes:int -> t

val broadcast : root:Topology.chip -> group:Topology.chip list -> bytes:int -> t

val all_reduce : group:Topology.chip list -> bytes:int -> t
(** Reduce to the lowest chip, then broadcast. *)

val all_gather : group:Topology.chip list -> shard_bytes:int -> t
(** Ring over the group in ascending-id order. *)

val scatter : root:Topology.chip -> group:Topology.chip list -> shard_bytes:int -> t

val all_chip_all_reduce : bytes:int -> t
(** Column all-reduces (all four columns concurrently), then row
    all-reduces. *)

(** {1 Validation} *)

type violation =
  | Not_a_link of Topology.chip * Topology.chip
  | Tx_conflict of Topology.chip  (** Two same-step transfers on one TX port
                                      toward the same peer. *)
  | Rx_overmerge of Topology.chip  (** More simultaneous incoming streams
                                       than the engine merges (degree). *)

val validate : t -> violation list
(** Empty = the plan is executable on the 4x4 row/column fabric. *)

val makespan : ?link:Link.t -> t -> float
(** Sum over steps of the slowest transfer (plus per-step engine
    overheads), zero for an empty plan. *)

val transfer_count : t -> int

val total_bytes : t -> int
(** Sum of every transfer's payload over the whole plan. *)

val endpoints : t -> Topology.chip list
(** Every chip appearing as a source or destination, sorted, deduplicated. *)

(** {1 Symbolic execution}

    The static counterpart of {!run_all_reduce}: instead of real vectors,
    every chip's state is a multiset of {e origin contributions} ("one copy
    of chip 4's partial"), and a plan is executed step by step under a
    per-step merge mode.  This is what the NOC-DEFUSE signoff rule runs —
    it sees read-before-write, same-step write races and dead transfers
    that byte conservation (NOC-BYTES) is blind to, without touching any
    values. *)

type merge_mode =
  | Accumulate  (** Receivers add incoming payloads to their state (the
                    reduce phase of {!run_all_reduce}). *)
  | Overwrite   (** Receivers replace their state with the incoming payload
                    (the broadcast phases of {!run_all_reduce}). *)
  | Union       (** Receivers keep one copy per origin (ring all-gather:
                    forwarding a shard the receiver already holds adds
                    nothing). *)

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
          race for one chip's slot; last-writer-wins order is undefined. *)
  deliveries : delivery list;  (** Every transfer, in plan order. *)
}

val run_symbolic :
  producers:Topology.chip list -> mode:(int -> merge_mode) -> t -> symbolic
(** Execute the plan on contribution multisets.  [producers] hold one copy
    of their own value before step 0 (a reduce: the whole group; a
    broadcast: just the root); [mode] maps each step index to its merge
    mode (an all-reduce: [Accumulate] at step 0, [Overwrite] after).
    Transfers of one step read start-of-step state, exactly like
    {!run_all_reduce}. *)

(** {1 Execution on values} *)

val run_all_reduce :
  ?plan:t -> ?obs:Hnlpu_obs.Sink.t -> ?link:Link.t ->
  group:Topology.chip list -> Collective.valued -> Collective.valued
(** Execute an all-reduce plan transfer by transfer on real vectors
    (merging at receivers on the first step, overwriting on later steps)
    and return the per-chip results — must equal {!Collective.all_reduce}
    (tested).  [plan] defaults to {!all_reduce} over [group]; passing a
    user plan lets signoff diff what the plan {e computes} against the
    mathematical sum (the NOC-EXEC rule).  Before each step runs, both
    endpoints of every transfer must hold a value: a transfer that leaves
    the group raises [Invalid_argument] naming the transfer.

    [obs] records one span per transfer — on the sending chip's track,
    tagged with bytes, step index and destination — timed with [link]
    (default {!Link.cxl3}) from time 0 so the stream agrees
    with {!makespan}; per-plan byte/transfer counters and a makespan gauge
    land in the metrics registry.  Values computed are unaffected. *)
