(** The HNLPU performance model: per-token latency, throughput, and the
    execution-time breakdown of Figure 14.

    {2 Model}

    One {!layer} table holds a layer's Figure 11 schedule, and every
    latency here folds it.  Decode ({!decode}) charges all five terms
    below, sampling and stall included; a prefill chunk and
    {!stage_times} leave those two out.

    - {b Communication}: the 15 collective steps per layer of the
      {!Layer_program}.  Each step costs
      [(phy + engine + payload/bandwidth) * contention]: with up to 216
      tokens in flight, every link is time-shared by the stages of ~36
      layers, and the contention factor (calibrated to Figure 14's 82.9%
      share at 2K context) models that queueing.
    - {b Projection}: the HN arrays compute in a handful of bit-serial
      cycles, but activation vectors enter each bank through a
      {!Hnlpu_chip.Hn_array.feed_bytes_per_cycle} input lane — the visible
      cost is input streaming (FP16 activations at the design point).
    - {b Nonlinear}: VEX RMSNorm/router/SwiGLU/residual lanes, split
      across S5 and S6, plus output sampling once per token.
    - {b Attention}: VEX KV-lane model, linear in context, split across
      S2 and S3.
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

type stage = {
  label : string;  (** "S1: HN-Q/K/V + col all-reduce" ... "S6: ...". *)
  stream_cycles : int;  (** HN input streams at the table's width. *)
  attention_half_s : float;  (** Half the layer's attention (S2, S3). *)
  nonlinear_half_s : float;  (** Half the layer's VEX nonlinear (S5, S6). *)
  collectives : Layer_program.entry list;  (** In program order. *)
}

type layer = {
  config : Hnlpu_model.Config.t;
  link : Hnlpu_noc.Link.t;  (** Every fold charges its steps on this link. *)
  stages : stage list;  (** The six Figure 11 stages, in order. *)
  sampling_s : float;  (** Once per token. *)
  hbm_stall_s : float;  (** Per layer; 0 at 2K. *)
}

val layer : act_bits:int -> Hnlpu_model.Config.t -> context:int -> layer
(** The table at an activation width, over CXL 3.0.  A stream of [n]
    elements carries [max 4 (ceil (n * act_bits / 8))] bytes.  The link is
    a field: [{ t with link }] prices the same schedule on another one. *)

val design : Hnlpu_model.Config.t -> context:int -> layer
(** FP16 activations over CXL 3.0: the table every function below folds. *)

val decode : layer -> breakdown
(** Whole-token decomposition: every layer, plus sampling (counted as
    nonlinear) and the HBM stall. *)

val stage_times : layer -> (string * float) list
(** Per-stage latencies of one layer, labelled by the table's stages; they
    sum to the layer's comm, projection, nonlinear and attention. *)

val token_breakdown : Hnlpu_model.Config.t -> context:int -> breakdown
(** [decode (design c ~context)]. *)

val token_latency_s : Hnlpu_model.Config.t -> context:int -> float

val token_latency_cached : Hnlpu_model.Config.t -> context:int -> float
(** Same value as {!token_latency_s}, memoized on [(config,
    context)] behind a mutex — the hot consumers (SLO bisection, the
    scheduler's context-aware latency buckets, parallel sweeps) probe the
    same operating points repeatedly. *)

val pipeline_slots : Hnlpu_model.Config.t -> int
(** 216 for gpt-oss 120B. *)

val throughput_tokens_per_s : Hnlpu_model.Config.t -> context:int -> float
(** 249,903 tokens/s at 2K context for gpt-oss 120B. *)

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

val figure14_contexts : int list
(** The six context lengths of Figure 14: 2K..512K. *)

val figure14 : Hnlpu_model.Config.t -> (int * breakdown) list
(** The full Figure 14 sweep (per-token breakdowns). *)
