(** Continuous-batching scheduler simulation (paper §5.2).

    HNLPU exposes [6 x layers] pipeline slots (216 for gpt-oss 120B).  A
    request with P prompt tokens and D decode tokens proceeds:

    - {b prefill}: its P tokens are mutually independent, so each occupies
      its own slot and they flow through the pipeline concurrently, limited
      only by free slots and the pipeline initiation interval;
    - {b decode}: autoregressive — one slot, one token in flight at a time,
      a new token starting as the previous completes.

    As slots free up, waiting work is admitted immediately ("dynamically
    schedules new sequences into the batch as soon as slots are freed") —
    prefill backlog first (it parallelizes), then new sequences.

    The simulator is event-driven over continuous time with per-token
    latency and initiation interval taken from {!Perf}; it reports
    throughput, time-to-first-token and per-request latency statistics. *)

type request = {
  arrival_s : float;
  prefill_tokens : int;
  decode_tokens : int;
}

type completed = {
  request : request;
  first_token_s : float;   (** Completion of the first decoded token. *)
  finish_s : float;
  queue_wait_s : float;    (** Arrival to first prefill-token injection. *)
}

type result = {
  completed_requests : completed list;
  makespan_s : float;
  tokens_processed : int;      (** Prefill + decode tokens. *)
  decode_tokens_out : int;
  throughput_tokens_per_s : float;
  mean_slot_occupancy : float; (** Time-averaged busy slots / total slots. *)
}

val requests : n:int -> Arrivals.t -> request list
(** The cursor's next [n] requests, materialized for {!simulate}.  Raises
    [Invalid_argument] when [n < 1]. *)

val simulate :
  ?context:int -> ?context_aware:bool ->
  ?slot_failures:(float * int) list -> ?obs:Hnlpu_obs.Sink.t ->
  Hnlpu_model.Config.t -> request list -> result
(** Run to completion of all requests.  [context] sets the per-token
    latency operating point (default 2048).  Events at equal simulated
    time run in a stated order: token completions (lower latency bucket
    first, then injection order), then pipeline wakeups, then arrivals
    in list order.  So requests arriving together enter in list order,
    and a slot freed at [t] goes to the decode queue before an arrival
    at [t] is admitted.  A slot-failure step is no event of its own: the
    first event at or after its time applies it before it injects.
    [test/digests] pins the rule.

    The loop merges time-ordered sources at their heads, each in a
    fixed array: the requests in (arrival, list position) order, read by
    a cursor; at most two pending wakeups; and a FIFO of at most [slots]
    completions per latency bucket (a bucket's tokens share a latency,
    so they leave in the order they entered).
    Events are immediate ints and times never cross a call boxed, so the
    loop allocates ~0 words per token; a run allocates O(requests) for
    the [completed] rows.

    [obs] installs a telemetry sink.  Each completed request records a
    "request" span with "queued"/"prefill"/"decode" child spans and a
    "first_token" instant on its own track; queue depth and busy slots are
    sampled as counter series on value changes; the metrics registry gains
    the two as gauges, TTFT/E2E/queue-wait histograms and run aggregates.
    A counters-only sink builds no span and no sample.  With no sink the
    simulation takes the identical code path and the result is
    bit-identical to the uninstrumented simulator (tested).

    [context_aware] (default false) makes each token's latency depend on
    its sequence's current length instead of the fixed operating point —
    attention time grows as the KV cache fills (Figure 14's x-axis), so
    long conversations decode measurably slower.  Latencies are bucketed
    at powers of two and cached.

    [slot_failures] injects capacity loss: at each (time, n) the pipeline
    permanently loses [n] slots — the fault model behind the paper's
    spare-node maintenance provisioning (§8 "Yield and Fault Tolerance",
    Appendix B note 7).  In-flight tokens complete; admission shrinks.
    Throughput degrades proportionally and no request is lost.  A
    negative or NaN time or arrival, a negative [n], or a request with
    no prefill or decode token raises [Invalid_argument]. *)

val saturated_throughput :
  ?context:int -> Hnlpu_model.Config.t -> float
(** Closed-loop upper bound [slots / token_latency] — must agree with
    {!Perf.throughput_tokens_per_s}. *)
