(** The per-chip HN Array (paper §4.3): the hardwired weights of this
    chip's slices of every layer — Wq/Wk/Wv/Wo column/row slices, the
    replicated router, and 8 of the 128 experts per layer.

    Area follows the Metal-Embedding density ({!Hnlpu_gates.Census}
    [popcount_port_transistors] plus per-weight overhead) on a highly
    regular fabric; 573.16 mm² for gpt-oss 120B, matching Table 1.

    Power is dominated by the *active* subset: the paper highlights that
    only 4 of 128 experts fire per token, keeping the array's density at a
    fraction of a dense design's. *)

val weights_per_chip : Hnlpu_model.Config.t -> float
(** Hardwired parameters divided over the 16 chips (~7.2B for gpt-oss). *)

val transistors_per_weight : float
(** Effective transistors per hardwired weight: POPCNT port cells plus the
    per-neuron multiplier/tree/accumulator overhead amortized over
    2880-input neurons (8 + 1.3). *)

val area_mm2 : Hnlpu_model.Config.t -> float

val active_fraction : Hnlpu_model.Config.t -> float
(** Active / hardwired — the MoE sparsity (~3.9% for gpt-oss top-4/128). *)

val stream_cycles : bytes:int -> int
(** Cycles to feed [bytes] of activation data into an HN bank: the input
    bus delivers {!feed_bytes_per_cycle} per cycle, then the bit-serial
    planes drain.  This input streaming is what makes "Projection" a
    visible share of Figure 14. *)

val power_w : Hnlpu_model.Config.t -> float
(** Table 1's 76.92 W: active-region clock/datapath power plus whole-array
    leakage; the clock-tree coefficient is calibrated to the paper's
    post-layout figure. *)

val power_if_dense_w : Hnlpu_model.Config.t -> float
(** Counterfactual power with every expert active — exhibits the sparsity
    claim of §7.1 (an order of magnitude above {!power_w}). *)
