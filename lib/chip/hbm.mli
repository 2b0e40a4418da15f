(** Per-module HBM model (paper §4.2/§7.4 and Appendix B): 8 stacks of
    24 GB store the embedding/unembedding tables and overflow KV cache.
    Double-buffered prefetch overlaps KV fetches with attention compute, so
    a stall only appears when the fetch time exceeds the compute it hides
    behind — the 10.7% at 512K context in Figure 14. *)

type t = {
  stacks : int;
  stack_bytes : float;
  effective_bandwidth_bytes_per_s : float;
      (** Sustained streaming bandwidth after derates; calibrated to
          Figure 14's stall onset between 256K and 512K (1.42 TB/s). *)
  pj_per_bit : float;
}

val hnlpu : t

val capacity_bytes : t -> float
(** 192 GB. *)

val fetch_time_s : t -> bytes:float -> float

val stall_s : t -> fetch_s:float -> compute_s:float -> float
(** Residual stall after overlapping a prefetch stream with compute:
    [max 0 (fetch - compute)]. *)

val fits_embedding : t -> Hnlpu_model.Config.t -> bool
(** The embedding + unembedding tables (FP16) must fit alongside KV spill. *)

val phy_area_mm2 : float
(** Table 1: 52 mm² of HBM PHY per chip. *)
