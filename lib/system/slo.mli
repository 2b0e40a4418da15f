(** Service-level-objective capacity planning on the continuous-batching
    pipeline.

    The paper argues a single HNLPU node replaces a mid-size GPU cluster
    for serving; the operational question is how much *interactive* load
    one node absorbs before latency objectives break.  This module answers
    it by bisecting the offered rate over {!Scheduler} simulations. *)

type objectives = {
  ttft_p95_s : float;     (** Time-to-first-token 95th percentile. *)
  e2e_p95_s : float;      (** Arrival-to-completion 95th percentile. *)
}
(** Both bounds must be positive (not NaN): {!evaluate}, {!sweep} and
    {!max_rate} raise [Invalid_argument] otherwise. *)

val interactive : objectives
(** 200 ms TTFT, 30 s end-to-end — chat-grade targets. *)

type evaluation = {
  rate_per_s : float;
  throughput_tokens_per_s : float;
  ttft_p95 : float;
  e2e_p95 : float;
  occupancy : float;
  meets : bool;
}

val evaluate :
  ?requests:int -> ?mean_prefill:int -> ?mean_decode:int ->
  ?obs:Hnlpu_obs.Sink.t ->
  Hnlpu_model.Config.t -> objectives -> rate_per_s:float -> evaluation
(** One simulated operating point: [requests] (default 150) Poisson
    arrivals at [rate_per_s] drawn from an {!Arrivals} cursor with seed
    1234, with geometric prompt and decode lengths of means [mean_prefill] (256) and [mean_decode] (128).  [obs] is passed
    through to {!Scheduler.simulate}. *)

val sweep :
  ?requests:int -> ?mean_prefill:int -> ?mean_decode:int ->
  ?domains:int -> ?obs:Hnlpu_obs.Sink.t ->
  Hnlpu_model.Config.t -> objectives -> rates:float list -> evaluation list
(** [sweep config obj ~rates] evaluates each offered rate, in the given
    order, across the {!Hnlpu_par.Par} domain pool ([domains] overrides
    its width).  Results are byte-identical to mapping {!evaluate} over
    [rates] sequentially: each rate seeds its own workload and, when [obs]
    is given, records into a private sink that is merged into [obs] in
    rate order after the sweep. *)

val max_rate :
  ?requests:int -> ?mean_prefill:int -> ?mean_decode:int ->
  Hnlpu_model.Config.t -> objectives -> float
(** Largest arrival rate (requests/s, within 5% relative) whose simulation meets the objectives.  Bisection between 1 and
    an upper bound derived from the token-throughput ceiling. *)
