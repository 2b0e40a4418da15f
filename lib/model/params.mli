(** Parameter counting — feeds the area, NRE and Table 4 models.

    For architecturally-specified configs the counts are derived from the
    shapes used in the paper's dataflow (Appendix A); for external models
    the published total is used. *)

val attention_per_layer : Config.t -> int
(** Wq + Wk + Wv + Wo. *)

val moe_per_layer : Config.t -> int
(** Router + all experts' up/gate/down projections (dense FFN when
    [experts = 0]). *)

val router_per_layer : Config.t -> int

val total : Config.t -> float
(** All parameters, including embeddings. *)

val hardwired : Config.t -> float
(** Parameters embedded in the HN arrays: everything except the embedding
    and unembedding tables, which live in HBM (§4.1, Figure 10-I). *)

val bytes : Config.t -> float
(** Native-precision storage footprint of [total]. *)

val router_fraction : Config.t -> float
(** Router weights as a fraction of total — the paper claims ~0.01%, which
    justifies replicating them on all 16 chips (§5.1). *)
