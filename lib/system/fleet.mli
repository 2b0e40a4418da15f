(** Fleet-scale cluster simulator: thousands of nodes, 10⁶–10⁷ requests,
    domain-sharded with byte-identical results at any [-j].

    The paper's TCO comparison is 16-chip HNLPU {e nodes} against H100
    {e clusters}; this module simulates the cluster side of that story.
    Where {!Scheduler} models one node token-by-token (216 pipeline
    slots, continuous batching), [Fleet] models each node as a {b fluid
    server}: a request consumes
    [prefill/prefill_rate + decode/decode_rate] seconds of node
    capacity, queueing behind the node's next-free time.  That
    abstraction is what makes 2,000 nodes × 10⁶ requests tractable —
    the per-request dispatch path allocates ~nothing (ALLOC-HOT Leaf,
    see [Lint_config]), latencies land in {!Hnlpu_obs.Sketch}
    histograms so memory stays flat however long the trace runs, and
    telemetry never touches the dispatch path: it is published from the
    merged result once the run is over.

    {2 Sharding and determinism}

    The node array is split into [config.shards] contiguous ranges, and
    {!Hnlpu_par.Par} distributes the shards over domains.  Each shard
    draws its own {!Arrivals} substream ([~stream:shard] of the seed) and
    routes every request it draws, so each request is generated exactly
    once.  Under [Round_robin], [Least_loaded] and [Power_aware] shard
    [k] draws [requests/shards] requests (one more when
    [k < requests mod shards]) from the spec rescaled to [1/shards] of
    its rate: a shard's arrivals are a Poisson stream at [λ/shards] (the
    exact split of a Poisson process), not every [shards]-th arrival of
    one shared trace.  Under [Session_affinity] a shard serves the users
    whose home node it holds, at their share of the rate, and the
    request count is apportioned over shards by largest remainder in
    proportion to those users.  An [Mmpp] spec keeps one modulating
    chain per seed, so every shard bursts together.  A request's routing
    never depends on another shard's state; node events that fall after
    a shard's last arrival still apply, in order.  Shard results merge
    in shard-index order.  Because the shard count is part of [config]
    (not derived from the domain count), results are {b byte-identical
    at any [-j]}; the determinism test pins [-j ∈ {1,2,4,8}] including
    a failure/drain schedule.  With [shards = 1] the single substream is
    stream 0, the whole trace.

    The price of shard independence is that routing state is per-shard:
    [Least_loaded] picks the least-loaded node {e of its own shard}
    (every shard sees a statistically identical stream), and rack power
    caps are enforced within each shard's rack slice.  With thousands of
    nodes per shard this is the standard "power-of-d-choices over a
    partition" regime: imbalance numbers stay within a few percent of a
    global scan while the dispatch path stays lock-free. *)

(** How a request picks a node (within its shard):

    - [Round_robin]: cyclic over the shard's nodes, skipping inactive
      ones;
    - [Least_loaded]: the node with the earliest next-free time, via an
      indexed 4-ary min-heap — O(log n) per dispatch;
    - [Session_affinity]: a user-id hash pins each user to a home node
      (KV/prefix locality), probing forward within the shard when the
      home node is failed or drained;
    - [Power_aware]: least-loaded among nodes that are already hot or
      whose rack is under [rack_power_cap] hot nodes — trades queueing
      delay for rack power headroom (ROADMAP's rack-cap item).  Also
      O(log n) per dispatch: a heap of the hot nodes, one heap of cold
      nodes per rack and a heap of the racks below their cap, so the
      choice is the lesser of two heap tops.  When every candidate rack
      is capped the request falls back to plain least-loaded (a scan
      over the shard's racks) and [power_cap_overrides] counts the
      violation. *)
type policy = Round_robin | Least_loaded | Session_affinity | Power_aware

val policy_name : policy -> string
(** ["rr" | "ll" | "sa" | "pa"]. *)

val policy_of_string : string -> policy option
(** Inverse of {!policy_name} (also accepts the long constructor names,
    case-insensitively). *)

type node_event_kind =
  | Fail  (** Node dies: backlog re-dispatches through the policy
              (counted in [redispatched_tokens]); the node holds no
              work until a later [Recover]. *)
  | Drain  (** Node stops taking new work but finishes its backlog. *)
  | Recover  (** Failed/drained node rejoins the eligible set. *)

type node_event = { at_s : float; node : int; kind : node_event_kind }

val fail_recover_schedule :
  nodes:int -> fraction:float -> at_s:float -> recover_after_s:float -> node_event array
(** Deterministic schedule failing every ⌊1/fraction⌋-th node at [at_s]
    and recovering it [recover_after_s] later — the canonical chaos
    schedule the determinism tests and the bench reuse. *)

type config = {
  nodes : int;
  shards : int;  (** Determinism granule; fixed per run, independent of [-j]. *)
  rack_size : int;  (** Nodes per rack (racks subdivide a shard's range). *)
  rack_power_cap : int;  (** Max simultaneously hot nodes per rack. *)
  idle_after_s : float;  (** A node cools to idle after this much inactivity. *)
  prefill_tokens_per_s : float;  (** Per-node chunked-prefill rate. *)
  decode_tokens_per_s : float;  (** Per-node aggregate decode rate (216 slots). *)
  decode_token_latency_s : float;  (** Single-stream per-token latency. *)
}

val config_of_model :
  ?shards:int ->
  nodes:int ->
  Hnlpu_model.Config.t ->
  config
(** Node rates from the {!Perf} model at context 2048:
    decode = {!Perf.throughput_tokens_per_s}, prefill =
    {!Perf.prefill_throughput_tokens_per_s} at chunk 8, per-token
    latency = {!Perf.token_latency_cached}.  [shards] defaults to 8;
    [rack_size] is 16, [rack_power_cap] 12 and [idle_after_s] 30. *)

val capacity_req_per_s : config -> Arrivals.spec -> float
(** Aggregate request rate the fleet can absorb at 100% utilization:
    [nodes / E\[service seconds per request\]] under the spec's mean
    token counts — the natural unit for offered-rate sweeps.  Raises
    [Invalid_argument] on an invalid config or spec (as {!run} would). *)

val home_node : config -> int -> int
(** The node [Session_affinity] pins a user id to (a hash of the id,
    modulo [nodes]). *)

type result = {
  r_nodes : int;
  r_shards : int;
  dispatched : int;  (** Requests that reached a node. *)
  dropped : int;  (** Requests with no eligible node (all failed/drained). *)
  total_tokens : float;  (** Prefill + decode tokens dispatched. *)
  redispatched_tokens : float;  (** Backlog moved off failed nodes. *)
  makespan_s : float;  (** Last request completion. *)
  throughput_tokens_per_s : float;
  imbalance : float;  (** Max/mean per-node tokens (1.0 = perfect). *)
  mean_utilization : float;  (** Busy node-seconds / (nodes × makespan). *)
  peak_rack_hot : int;  (** Max simultaneously hot nodes in any rack. *)
  power_cap_overrides : int;  (** [Power_aware] forced past the cap. *)
  ttft : Hnlpu_obs.Sketch.t;  (** Queue wait + prefill + first token. *)
  e2e : Hnlpu_obs.Sketch.t;  (** Arrival to last decoded token. *)
  queue_wait : Hnlpu_obs.Sketch.t;
  per_node_tokens : float array;  (** Length [nodes]. *)
  per_node_requests : int array;  (** Length [nodes]. *)
}

val run :
  ?domains:int ->
  ?obs:Hnlpu_obs.Sink.t ->
  ?node_events:node_event array ->
  policy:policy ->
  requests:int ->
  seed:int ->
  config ->
  Arrivals.spec ->
  result
(** Simulate [requests] arrivals from the spec over the fleet.
    [node_events] must be sorted by time (checked); events apply to each
    shard's own nodes as simulated time passes.  [?obs] receives the
    run's aggregates, published once after the shard merge: counters
    [fleet/requests] (only when a request was dispatched),
    [fleet/dropped] (only when a request was dropped), [fleet/tokens]
    and [fleet/redispatched_tokens]; gauges [fleet/makespan_s] and
    [fleet/peak_rack_hot]; and the result's sketches as histograms
    [fleet/ttft_s], [fleet/e2e_s] and [fleet/queue_wait_s] (present with
    [fleet/requests]).  Being the
    result, the registry too is identical at any [-j].  Raises [Invalid_argument] on a non-positive node/shard/
    request count, [shards > nodes], or unsorted events. *)

type objectives = { max_ttft_p99_s : float; max_e2e_p99_s : float }

val interactive : objectives
(** TTFT p99 ≤ 0.5 s, E2E p99 ≤ 30 s. *)

type frontier_point = {
  fp_policy : policy;
  offered_req_per_s : float;
  utilization_of_capacity : float;  (** Offered rate / {!capacity_req_per_s}. *)
  ttft_p50_s : float;
  ttft_p99_s : float;
  e2e_p99_s : float;
  fp_imbalance : float;
  fp_throughput_tokens_per_s : float;
  fp_dropped : int;
  meets_slo : bool;
}

val sweep :
  ?node_events:node_event array ->
  policies:policy list ->
  rates:float list ->
  requests:int ->
  seed:int ->
  objectives ->
  config ->
  Arrivals.spec ->
  frontier_point list
(** The SLO capacity frontier: one {!run} per (policy, offered rate) —
    the grid parallelized via {!Hnlpu_par.Par.parallel_map} (each run's
    internal sharding degrades to sequential inside the pool), points
    returned grouped by policy in the order given, rates ascending as
    given.  A policy's {e capacity} is the largest rate with
    [meets_slo]. *)
