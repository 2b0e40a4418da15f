(** The per-layer collective program of the §5 / Figure 10 dataflow: the
    fixed sequence of collectives every layer runs, fixed at fabrication
    like the weights.  It is the one authoritative copy: {!Perf} charges
    its steps, {!Traffic} maps its entries to {!Hnlpu_noc.Schedule} plans,
    {!Dataflow} tallies each collective it performs against it, and
    signoff checks the plan of every entry on every instance.

    In order, with the steps charged per layer (15 in all): Q column
    all-reduce (2), K and V column reduces to the KV owner (1 each),
    softmax-statistics and partial-O column all-reduces (2 each), Xo row
    all-reduce (2), Xo column all-gather (1), MoE all-chip all-reduce (4).
    Each charge is its {!plan}'s length, except the all-gather's: the ring
    plan takes 3 steps. *)

type op = Q | K | V | Stats | Partial_o | Xo_row | Xo_gather | Moe

type kind = All_reduce | Reduce | All_gather | All_chip_all_reduce

type group = Each_column | Each_row | All_chips

type entry = {
  op : op;
  label : string;  (** The {!Traffic} ledger label. *)
  stage : int;  (** Figure 11 stage, 1..6. *)
  kind : kind;
  group : group;
  payload_bytes : Hnlpu_model.Config.t -> int;
      (** Per instance; the shard for the all-gather. *)
  steps : int;
}

val program : entry list

val index : op -> int
(** Position of [op]'s entry in {!program}. *)

val instances : group -> int
(** Concurrent instances per layer: 4 columns, 4 rows, or 1. *)

val collective :
  Hnlpu_model.Config.t -> entry -> instance:int -> Hnlpu_noc.Schedule.collective
(** The entry's collective on one instance: column or row [instance]
    (0..3), or the whole machine (pass 0).  Reduces are rooted at the
    group's lowest chip.  Signoff checks the plan of every entry on every
    instance. *)

val plan : Hnlpu_model.Config.t -> entry -> Hnlpu_noc.Schedule.t
(** {!Hnlpu_noc.Schedule.canonical} of the entry's collective on its
    first instance. *)
