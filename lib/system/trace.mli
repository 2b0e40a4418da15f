(** Stage-level pipeline trace simulation.

    {!Perf} is closed-form; this module *simulates* the 6-stage x 36-layer
    decode pipeline token by token and measures what the closed form
    predicts — throughput, latency, slot census and per-stage occupancy —
    so the analytical model is validated by discrete-event execution
    rather than by construction.

    Model: each of the 216 layer-stages is an internally pipelined unit
    with service latency from {!Perf.stage_times_s}.  A unit holding a
    d-second service sustains one token per [d / ceil(d / ii_target)]
    (its pipeline registers give it [ceil(d/ii)] slots), so a balanced
    initiation interval emerges; a token enters stage s when (a) it has
    left stage s-1 and (b) the stage's initiation interval has elapsed
    since the previous token entered.  Tokens are injected back-to-back
    (saturated decode of independent sequences). *)

type stage_stat = {
  stage_label : string;       (** "L12/S3"-style identifier. *)
  service_s : float;
  slots : int;                (** Pipeline depth of the unit. *)
  utilization : float;        (** Busy fraction over the simulated window. *)
}

type t = {
  tokens : int;
  sim_time_s : float;
  measured_throughput_tokens_per_s : float;
  measured_latency_s : float;      (** Steady-state per-token latency. *)
  predicted_throughput_tokens_per_s : float;
  predicted_latency_s : float;
  total_slots : int;               (** Sum of unit depths, ~216. *)
  stage_stats : stage_stat list;   (** One entry per pipeline stage. *)
}

val run :
  ?context:int -> ?tokens:int ->
  ?obs:Hnlpu_obs.Sink.t -> ?obs_tokens:int -> Hnlpu_model.Config.t -> t
(** Simulate [tokens] (default 2,000) through the pipeline at a context
    length (default 2048) and compare against {!Perf}.

    [obs] records per-stage service spans for the first [obs_tokens]
    (default 32) tokens — one track per (stage, pipeline-slot), so the
    viewer shows the pipeline filling and reaching steady state — plus a
    stage-utilization histogram and measured-vs-predicted gauges.  The
    numbers returned are unaffected. *)

val busiest_stage : t -> stage_stat
(** The utilization-limiting stage (for gpt-oss at 2K: the MoE all-reduce
    stage S6). *)
