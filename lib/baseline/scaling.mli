(** GPU-cluster equivalence (paper §2.1: "a single-node Hardwired LPU can
    outperform a middle-sized GPU cluster", and Appendix B note 1's
    normalization).

    How many H100s does one HNLPU replace?  It depends on how well the GPU
    amortizes weight traffic — i.e. on batch size.  This module sweeps the
    regimes from latency-critical (batch 1: the Table 2 measurement) to
    throughput-tuned (batch 256), and prices the equivalent cluster. *)

type point = {
  gpu_batch : int;
  gpu_tokens_per_s : float;    (** Per-GPU throughput at this regime. *)
  gpus_needed : float;         (** To match one HNLPU's decode rate. *)
  cluster_price_usd : float;   (** Hardware only, at $40K/GPU. *)
  cluster_power_w : float;
  power_ratio : float;         (** Cluster power / HNLPU system power. *)
}

val sweep : unit -> point list
(** Batches 1, 8, 32, 50, 128 and 256.  Batch 1 uses the measured
    45 tok/s anchor; larger batches use the roofline model.  Each point
    is closed-form, so the sweep is a plain map, not a pool region. *)

val paper_equivalence : point
(** The concurrency-50 regime: ~2,000 GPUs, the paper's TCO anchor. *)

val to_table : point list -> Hnlpu_util.Table.t
