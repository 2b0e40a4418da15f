(** Photomask-set pricing and the Sea-of-Neurons sharing arithmetic
    (paper §3.2 and Appendix B note 3).

    The full N5 set is anchored at $15M (optimistic) to $30M (pessimistic);
    costs scale with the normalized units of {!Layer_stack}.  The paper's
    headline numbers at the $30M anchor: homogeneous prefab $27.69M,
    metal-embedding reticles $2.31M per chip, so a 16-chip HNLPU costs
    $64.6M of masks initially ("reduced from $480M to $65M") and $36.9M per
    weight-update re-spin. *)

type anchor = Optimistic | Pessimistic

val full_set_usd : anchor -> float
(** $15M / $30M. *)

val homogeneous_cost : anchor -> float
(** The shared prefab set: FEOL + M0–M7 + M12+, incl. all EUV. *)

val embedding_cost_per_chip : anchor -> float
(** The 10 per-chip ME reticles. *)

val sea_of_neurons_initial : anchor -> chips:int -> float
(** Homogeneous set + per-chip ME sets — the initial tapeout mask bill. *)

val sea_of_neurons_respin : anchor -> chips:int -> float
(** ME sets only: the prefab is reused for weight updates. *)

val full_custom : anchor -> chips:int -> float
(** What hardwiring without Sea-of-Neurons costs: one full set per chip
    (the $480M figure for 16 chips). *)

val initial_saving_fraction : anchor -> chips:int -> float
(** 1 - sea_of_neurons/full_custom; the paper quotes -86.5% for the
    initial tapeout at 16 chips. *)

val respin_saving_fraction : anchor -> chips:int -> float
(** The paper quotes -92.3% for a parameter-only re-spin. *)

val range : (anchor -> float) -> float * float
(** Evaluate a cost at both anchors: (optimistic, pessimistic). *)
