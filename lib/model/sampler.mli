(** Token sampling from logits — the "logit sampling" stage HNLPU
    implements in hardware after the unembedding (§4.1, Figure 10-I).

    The base strategies are what the evaluated design supports; {!Top_p}
    models the paper's "conditional decoding (programmable sampling
    algorithms)" future-work item (§8), which it foresees no obstacle to
    implementing in the VEX sampling unit. *)

type strategy =
  | Greedy
  | Temperature of float
      (** Multinomial over softmax(logits / t); t must be positive. *)
  | Top_k of int * float
      (** Multinomial restricted to the k most likely tokens, with
          temperature. *)
  | Top_p of float * float
      (** Nucleus sampling: smallest probability mass >= p (first arg in
          (0, 1]), with temperature. *)

val sample : Hnlpu_util.Rng.t -> strategy -> Hnlpu_tensor.Vec.t -> int
(** Draw a token id from the logits. *)

val distribution : strategy -> Hnlpu_tensor.Vec.t -> Hnlpu_tensor.Vec.t
(** The full token distribution a strategy induces (sums to 1). *)
