(** The calibrated-constant registry: the [Fitted] origins of
    {!Paper.all} — value, defining module, and the paper anchor each one
    is pinned to — for [hnlpu signoff] and EXPERIMENTS.md's index. *)

type entry = Paper.fit

val all : unit -> entry list
(** Every calibrated constant, in dependency order. *)

val to_table : unit -> Hnlpu_util.Table.t

val count : unit -> int
(** How many knobs the whole reproduction rests on (single digits). *)
