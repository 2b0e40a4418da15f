(** NVIDIA H100 baseline (paper §6.3 and Appendix B note 1).

    The paper *measures* H100 via TensorRT-LLM: 45 tokens/s serving
    gpt-oss 120B at 2K context (single-stream optimal-throughput tuning,
    Table 2) and ~1.08K tokens/s per GPU under a 1K/1K concurrency-50
    distributed workload (the TCO normalization).  We cannot run an H100,
    so those anchors are carried as data, and a memory-bandwidth roofline
    model reproduces their order of magnitude and the batch-scaling
    behaviour the bench sweeps (autoregressive decode reads every active
    weight once per step; batching amortizes it). *)

type t = {
  hbm_bytes : float;                 (** 80 GB *)
  hbm_bandwidth_bytes_per_s : float; (** 3.35 TB/s *)
  die_mm2 : float;                   (** 814 mm² *)
  system_power_w : float;            (** 1.3 kW incl. host share (Table 2) *)
  rack_units : int;
  node_price_usd : float;            (** $320K per 8-GPU HGX node *)
  gpus_per_node : int;
}

val spec : t

val measured_decode_tokens_per_s : float
(** 45 — Table 2's measured figure. *)

val concurrent_tokens_per_s : float
(** 1,080 — per-GPU throughput at concurrency 50 (Appendix B note 1). *)

val active_weight_bytes_per_token : Hnlpu_model.Config.t -> float
(** Weights an autoregressive decode step must touch: attention + router +
    top-k experts across all layers, at the model's native precision. *)

val roofline_tokens_per_s : Hnlpu_model.Config.t -> batch:int -> float
(** Bandwidth-bound decode throughput at a batch size: a batch of B reads
    the union of its active experts once per step, sustaining 0.3 of peak
    bandwidth (which reproduces the concurrency-50 anchor within a few
    percent). *)

val price_per_gpu_usd : float

val tokens_per_kj : float
(** Table 2: 34.6. *)

(** {1 Next-generation GPU what-if}

    §8 ("Model Updates"): "the release of B100 did not render H100
    obsolete".  A B200-class part (~8 TB/s HBM3e, ~1.2 kW, ~2.4x decode
    throughput by bandwidth ratio) narrows but nowhere near closes the
    gap — the weights still move through memory every token. *)

type next_gen = {
  ng_name : string;
  ng_bandwidth_bytes_per_s : float;
  ng_power_w : float;
}

val b200_class : next_gen

val next_gen_decode_tokens_per_s : next_gen -> float
(** Scaled from the measured H100 anchor by bandwidth ratio (decode is
    bandwidth-bound). *)

val next_gen_tokens_per_kj : next_gen -> float
