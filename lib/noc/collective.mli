(** Value-level collectives over per-chip vectors (paper §4.3: the
    Interconnect Engine supports Broadcast/Reduce row-wise and
    Scatter/Broadcast/Reduce/Gather column-wise).

    Function only: the dataflow simulator checks with it that the §5
    mapping computes the reference's numbers, and NOC-EXEC diffs what a
    plan computes against {!sum}.  Plans and their timing live in
    {!Schedule}. *)

type valued = (Topology.chip * Hnlpu_tensor.Vec.t) list
(** A value per chip of a group. *)

val sum : valued -> Hnlpu_tensor.Vec.t
(** Element-wise sum of the group's vectors, in list order. *)

val all_reduce : valued -> valued
(** Everyone ends with {!sum}. *)
