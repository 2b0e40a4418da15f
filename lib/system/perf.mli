(** The HNLPU performance model: per-token latency, throughput, and the
    execution-time breakdown of Figure 14.

    {2 Model}

    A token's latency sums per-layer components over the 36 layers, plus
    output sampling:

    - {b Communication}: the 15 collective steps per layer of the
      {!Layer_program}.  Each step costs
      [(phy + engine + payload/bandwidth) * contention]: with up to 216
      tokens in flight, every link is time-shared by the stages of ~36
      layers, and the contention factor (calibrated to Figure 14's 82.9%
      share at 2K context) models that queueing.  Decode, prefill chunks
      and the Figure 11 stage times fold this one step cost over the
      program.
    - {b Projection}: the HN arrays compute in a handful of bit-serial
      cycles, but activation vectors enter each bank through a
      {!Hnlpu_chip.Hn_array.feed_bytes_per_cycle} input lane — the visible
      cost is input streaming (FP16 activations).
    - {b Nonlinear}: VEX RMSNorm/router/SwiGLU/residual lanes.
    - {b Attention}: VEX KV-lane model, linear in context.
    - {b Stall}: HBM KV-spill fetch time not hidden behind attention
      compute (appears between 256K and 512K context).

    Throughput is [pipeline_slots / token_latency]: continuous batching
    keeps all 6 x layers slots full, so one token completes per slot per
    latency (paper §5.2). *)

type breakdown = {
  comm_s : float;
  projection_s : float;
  nonlinear_s : float;
  attention_s : float;
  stall_s : float;
}

val total_s : breakdown -> float

val fractions : breakdown -> breakdown
(** Each component divided by the total — the Figure 14 percentages. *)

val link_contention_factor : float
(** Queueing multiplier on collective steps (calibrated, see above). *)

val per_layer_comm_s : ?link:Hnlpu_noc.Link.t -> Hnlpu_model.Config.t -> float

val per_layer_projection_s : Hnlpu_model.Config.t -> float

val per_layer_nonlinear_s : Hnlpu_model.Config.t -> float

val per_layer_attention_s : Hnlpu_model.Config.t -> context:int -> float

val per_layer_stall_s : Hnlpu_model.Config.t -> context:int -> float

val token_breakdown : Hnlpu_model.Config.t -> context:int -> breakdown
(** Whole-token decomposition (all layers + sampling, which counts as
    nonlinear). *)

val token_latency_s : Hnlpu_model.Config.t -> context:int -> float

val token_latency_cached : Hnlpu_model.Config.t -> context:int -> float
(** Same value as {!token_latency_s}, memoized on [(config,
    context)] behind a mutex — the hot consumers (SLO bisection, the
    scheduler's context-aware latency buckets, parallel sweeps) probe the
    same operating points repeatedly. *)

val pipeline_slots : Hnlpu_model.Config.t -> int
(** 216 for gpt-oss 120B. *)

val throughput_tokens_per_s : Hnlpu_model.Config.t -> context:int -> float
(** 249,960 tokens/s at 2K context for gpt-oss 120B. *)

(** {1 Prefill}

    Prompt tokens of one sequence are mutually independent (§5.2), so the
    pipeline carries them in chunks: the per-chunk collectives batch the
    chunk's payloads into single transfers, amortizing the fixed per-step
    latency — decode cannot do this because each token waits for the
    previous one.  Chunked prefill approaches the streaming-bandwidth
    asymptote of the HN input buses. *)

val prefill_chunk_latency_s :
  Hnlpu_model.Config.t -> chunk:int -> context:int -> float
(** Latency of a [chunk]-token prefill group through the whole pipeline. *)

val prefill_throughput_tokens_per_s :
  Hnlpu_model.Config.t -> chunk:int -> context:int -> float
(** [pipeline_slots * chunk / chunk latency]; ~5x the decode rate at
    chunk 8 and >1M tokens/s toward the asymptote — the mechanism behind
    the paper's high prefill throughput under mixed workloads. *)

val prefill_throughput_cached :
  Hnlpu_model.Config.t -> chunk:int -> context:int -> float
(** Same value as {!prefill_throughput_tokens_per_s}, memoized in the
    table behind {!token_latency_cached}. *)

val stage_times_s :
  Hnlpu_model.Config.t -> context:int -> (string * float) list
(** Per-stage decode latencies of the six-stage Figure 11 pipeline; they
    sum to the per-layer total.  Labels are {!stage_names}, in order — the
    two can never disagree. *)

val figure14_contexts : int list
(** The six context lengths of Figure 14: 2K..512K. *)

val figure14 : Hnlpu_model.Config.t -> (int * breakdown) list
(** The full Figure 14 sweep (per-token breakdowns). *)

val stage_names : string list
(** The six pipeline stages of Figure 11, for reporting — the canonical
    labels {!stage_times_s} attaches to its latencies. *)
