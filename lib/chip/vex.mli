(** The Vector Execution Unit (paper §4.3): GEMV lanes plus dedicated
    nonlinear operators (RMSNorm, SwiGLU, softmax), a residual adder and a
    multinomial sampling unit.  It computes attention scores in the
    FlashAttention flow, reading K/V from the attention buffer at 32 cached
    KV heads per cycle. *)

val attention_efficiency : float
(** Sustained fraction of the peak lane rate.  The KV cache is interleaved
    across the 4 chips of a column ("chip-w/r-id = K/V-addr mod 4"), whose
    remote reads and softmax rescaling insert bubbles; 0.48 calibrates the
    attention share of Figure 14 (15.1% at 64K). *)

val attention_cycles : Hnlpu_model.Config.t -> context:int -> int
(** Cycles one chip's VEX spends on attention for one token of one layer:
    two passes (Q.K and Z.V) over its 2 KV heads x context/4 positions. *)

val nonlinear_cycles : Hnlpu_model.Config.t -> int
(** Per-layer cycles for the nonlinear work outside attention: two
    RMSNorms, router softmax/top-k, SwiGLU and the residual adds, at 32
    elements per cycle. *)

val sampling_cycles : Hnlpu_model.Config.t -> int
(** Multinomial sampling over the vocabulary shard a chip owns. *)

val area_mm2 : float
(** Table 1: 27.87 mm². *)

val power_w : float
(** Table 1: 33.09 W. *)
