(* Tests for the GPU-equivalence scaling sweep and the fleet simulation
   backing the high-volume scenario. *)

open Hnlpu

let config = Config.gpt_oss_120b

(* --- Scaling / GPU equivalence ------------------------------------------- *)

let test_scaling_batch1_is_table2 () =
  match Scaling.sweep ~batches:[ 1 ] () with
  | [ p ] ->
    (* 249,960 / 45 = the Table 2 headline. *)
    Alcotest.(check bool)
      (Printf.sprintf "%.0f GPUs" p.Scaling.gpus_needed)
      true
      (Thelp.within_pct 1.0 ~expected:5555.0 ~actual:p.Scaling.gpus_needed)
  | _ -> Alcotest.fail "one point expected"

let test_scaling_batching_shrinks_cluster () =
  let pts = Scaling.sweep () in
  let needed b =
    (List.find (fun p -> p.Scaling.gpu_batch = b) pts).Scaling.gpus_needed
  in
  Alcotest.(check bool) "bigger batches, fewer GPUs" true
    (needed 256 < needed 50 && needed 50 < needed 1);
  (* Even a throughput-tuned cluster still needs dozens of GPUs. *)
  Alcotest.(check bool)
    (Printf.sprintf "batch-256 still needs %.0f GPUs (dozens)" (needed 256))
    true
    (needed 256 > 50.0)

let test_scaling_paper_equivalence () =
  let p = Scaling.paper_equivalence in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f GPUs ~ 2000" p.Scaling.gpus_needed)
    true
    (Thelp.within_pct 10.0 ~expected:2000.0 ~actual:p.Scaling.gpus_needed);
  (* The power argument behind the OpEx advantage. *)
  Alcotest.(check bool)
    (Printf.sprintf "power ratio %.0fx" p.Scaling.power_ratio)
    true
    (p.Scaling.power_ratio > 200.0)

let test_scaling_table_renders () =
  let s = Table.render (Scaling.to_table (Scaling.sweep ())) in
  Alcotest.(check bool) "renders" true (Thelp.contains s "GPUs to match")

(* --- Fleet: sharded cluster simulator ------------------------------------ *)

let fleet_config nodes shards =
  { (Fleet.config_of_model ~nodes ~shards config) with Fleet.idle_after_s = 0.05 }

let near_capacity cfg spec frac = Fleet.capacity_req_per_s cfg spec *. frac

let chat_spec cfg frac =
  Arrivals.with_mean_rate (Arrivals.chat ~rate_per_s:1.0) (near_capacity cfg (Arrivals.chat ~rate_per_s:1.0) frac)

let chaos cfg =
  (* Fail a quarter of the fleet mid-trace, recover shortly after. *)
  Fleet.fail_recover_schedule ~nodes:cfg.Fleet.nodes ~fraction:0.25 ~at_s:0.2
    ~recover_after_s:0.3

let test_fleet_run_deterministic_across_domains () =
  let cfg = fleet_config 64 4 in
  let spec = chat_spec cfg 0.8 in
  let run domains =
    let obs = Obs.Sink.create ~events:false () in
    let r =
      Fleet.run ~domains ~obs ~node_events:(chaos cfg) ~policy:Fleet.Least_loaded
        ~requests:20_000 ~seed:7 cfg spec
    in
    (* The failed quarter's work moves to live nodes, so nothing drops
       and the sink holds no dropped series at all. *)
    Alcotest.(check int) "nothing dropped" 0 r.Fleet.dropped;
    Alcotest.(check bool) "no fleet/dropped series" true
      (Obs.Metrics.counter (Obs.Sink.metrics obs) "fleet/dropped" = None);
    (Marshal.to_string r [], Obs.Metrics.to_json (Obs.Sink.metrics obs))
  in
  let ref_r, ref_m = run 1 in
  List.iter
    (fun j ->
      let r, m = run j in
      Alcotest.(check bool)
        (Printf.sprintf "result bytes identical at j=%d" j)
        true (String.equal ref_r r);
      Alcotest.(check string) (Printf.sprintf "metrics identical at j=%d" j) ref_m m)
    [ 2; 4; 8 ]

let test_fleet_policies_deterministic () =
  (* Every policy, not just LL: same bytes at j=1 and j=4, with chaos. *)
  let cfg = fleet_config 48 3 in
  let spec =
    { (chat_spec cfg 0.7) with
      Arrivals.decode = Arrivals.Pareto { alpha = 1.4; xmin = 32.0; cap = 8192 } }
  in
  List.iter
    (fun policy ->
      let name = Fleet.policy_name policy in
      let run domains =
        let obs = Obs.Sink.create ~events:false () in
        let r =
          Fleet.run ~domains ~obs ~node_events:(chaos cfg) ~policy ~requests:10_000
            ~seed:11 cfg spec
        in
        (r, Obs.Sink.metrics obs)
      in
      let r1, m1 = run 1 and r4, m4 = run 4 in
      Alcotest.(check bool)
        (Printf.sprintf "%s identical j=1 vs j=4" name)
        true
        (String.equal (Marshal.to_string r1 []) (Marshal.to_string r4 []));
      Alcotest.(check string)
        (name ^ " registry identical j=1 vs j=4")
        (Obs.Metrics.to_json m1) (Obs.Metrics.to_json m4);
      (* The registry is the result, published: same counts, same
         sketch, same token total. *)
      match Obs.Metrics.histogram m1 "fleet/ttft_s" with
      | None -> Alcotest.fail (name ^ ": no fleet/ttft_s series")
      | Some h ->
          Alcotest.(check int) (name ^ " ttft count = dispatched") r1.Fleet.dispatched
            h.Obs.Metrics.count;
          Alcotest.(check (float 0.0))
            (name ^ " ttft p99 = result p99")
            (Obs.Sketch.quantile r1.Fleet.ttft 0.99)
            h.Obs.Metrics.p99;
          Alcotest.(check (option (float 0.0)))
            (name ^ " tokens = total_tokens")
            (Some r1.Fleet.total_tokens)
            (Obs.Metrics.counter m1 "fleet/tokens"))
    [ Fleet.Round_robin; Fleet.Least_loaded; Fleet.Session_affinity; Fleet.Power_aware ]

let test_fleet_conservation_and_accounting () =
  let cfg = fleet_config 32 4 in
  let spec = chat_spec cfg 0.8 in
  let r =
    Fleet.run ~domains:2 ~node_events:(chaos cfg) ~policy:Fleet.Least_loaded
      ~requests:15_000 ~seed:3 cfg spec
  in
  Alcotest.(check int) "dispatched + dropped = requests" 15_000
    Fleet.(r.dispatched + r.dropped);
  let node_sum = Array.fold_left ( +. ) 0.0 r.Fleet.per_node_tokens in
  Alcotest.(check bool)
    (Printf.sprintf "per-node ledger %.1f ~ total %.1f" node_sum r.Fleet.total_tokens)
    true
    (abs_float (node_sum -. r.Fleet.total_tokens) /. r.Fleet.total_tokens < 1e-9);
  Alcotest.(check int) "per-node requests sum" Fleet.(r.dispatched)
    (Array.fold_left ( + ) 0 r.Fleet.per_node_requests);
  Alcotest.(check bool) "failures actually moved work" true
    (r.Fleet.redispatched_tokens > 0.0);
  Alcotest.(check bool) "utilization sane" true
    (r.Fleet.mean_utilization > 0.0 && r.Fleet.mean_utilization <= 1.0)

let test_fleet_ll_beats_rr_on_heavy_tail () =
  let cfg = fleet_config 32 4 in
  let spec =
    { (chat_spec cfg 0.6) with
      Arrivals.decode = Arrivals.Pareto { alpha = 1.3; xmin = 16.0; cap = 65536 } }
  in
  let run policy =
    Fleet.run ~domains:2 ~policy ~requests:20_000 ~seed:5 cfg spec
  in
  let rr = run Fleet.Round_robin and ll = run Fleet.Least_loaded in
  Alcotest.(check bool)
    (Printf.sprintf "LL %.3f <= RR %.3f" ll.Fleet.imbalance rr.Fleet.imbalance)
    true
    (ll.Fleet.imbalance <= rr.Fleet.imbalance +. 1e-9)

let test_fleet_session_affinity_pins_users () =
  let cfg = fleet_config 16 2 in
  let spec = { (chat_spec cfg 0.2) with Arrivals.users = 1 } in
  let r =
    Fleet.run ~domains:2 ~policy:Fleet.Session_affinity ~requests:4_000 ~seed:9
      cfg spec
  in
  (* One user = one home node: all load on a single node. *)
  let loaded =
    Array.fold_left (fun a t -> if t > 0.0 then a + 1 else a) 0 r.Fleet.per_node_tokens
  in
  Alcotest.(check int) "single hot node" 1 loaded;
  Alcotest.(check bool)
    (Printf.sprintf "imbalance %.1f ~ nodes" r.Fleet.imbalance)
    true
    (r.Fleet.imbalance > 15.9)

let test_fleet_power_cap_respected () =
  let base = fleet_config 32 2 in
  let cfg =
    { base with Fleet.rack_size = 8; rack_power_cap = 3; idle_after_s = 1e9 }
  in
  let spec = chat_spec cfg 0.5 in
  let run policy = Fleet.run ~domains:2 ~policy ~requests:8_000 ~seed:13 cfg spec in
  let ll = run Fleet.Least_loaded and pa = run Fleet.Power_aware in
  Alcotest.(check bool)
    (Printf.sprintf "LL ignores the cap (peak %d)" ll.Fleet.peak_rack_hot)
    true
    (ll.Fleet.peak_rack_hot > 3);
  Alcotest.(check bool)
    (Printf.sprintf "PA peak %d <= cap 3 (overrides %d)" pa.Fleet.peak_rack_hot
       pa.Fleet.power_cap_overrides)
    true
    (pa.Fleet.power_cap_overrides > 0 || pa.Fleet.peak_rack_hot <= 3)

let test_fleet_total_outage_drops () =
  let cfg = fleet_config 8 2 in
  let spec = chat_spec cfg 0.5 in
  let events =
    Fleet.fail_recover_schedule ~nodes:8 ~fraction:1.0 ~at_s:0.1
      ~recover_after_s:1e6
  in
  let obs = Obs.Sink.create ~events:false () in
  let r =
    Fleet.run ~domains:1 ~obs ~node_events:events ~policy:Fleet.Least_loaded
      ~requests:2_000 ~seed:17 cfg spec
  in
  Alcotest.(check bool) "outage drops requests" true (r.Fleet.dropped > 0);
  Alcotest.(check (option (float 0.0)))
    "fleet/dropped = dropped"
    (Some (float r.Fleet.dropped))
    (Obs.Metrics.counter (Obs.Sink.metrics obs) "fleet/dropped");
  Alcotest.(check int) "accounting still closes" 2_000
    Fleet.(r.dispatched + r.dropped)

let test_fleet_idle_nodes_report_zero () =
  (* More nodes than requests: round-robin gives each request its own
     node, and every other node reports zero requests and tokens. *)
  let nodes = 8 and requests = 3 in
  let cfg = fleet_config nodes 1 in
  let r =
    Fleet.run ~policy:Fleet.Round_robin ~requests ~seed:1 cfg (chat_spec cfg 0.5)
  in
  let zeros zero a = Array.fold_left (fun n x -> if x = zero then n + 1 else n) 0 a in
  Alcotest.(check int) "idle request rows" (nodes - requests)
    (zeros 0 r.Fleet.per_node_requests);
  Alcotest.(check int) "idle token rows" (nodes - requests)
    (zeros 0.0 r.Fleet.per_node_tokens)

(* Request counts per shard, summed from the per-node rows. *)
let shard_sums cfg (r : Fleet.result) =
  Array.init cfg.Fleet.shards (fun k ->
      let lo = k * cfg.Fleet.nodes / cfg.Fleet.shards in
      let hi = (k + 1) * cfg.Fleet.nodes / cfg.Fleet.shards in
      Array.fold_left ( + ) 0 (Array.sub r.Fleet.per_node_requests lo (hi - lo)))

let non_sa = [ Fleet.Round_robin; Fleet.Least_loaded; Fleet.Power_aware ]

let test_fleet_fewer_requests_than_shards () =
  (* 3 requests over 8 single-node shards: shards 0-2 draw one request
     each, the other five draw nothing and report zero rows. *)
  let cfg = fleet_config 8 8 in
  List.iter
    (fun policy ->
      let name = Fleet.policy_name policy in
      let r =
        Fleet.run ~domains:4 ~policy ~requests:3 ~seed:1 cfg (chat_spec cfg 0.5)
      in
      Alcotest.(check int) (name ^ " conserves") 3 Fleet.(r.dispatched + r.dropped);
      Alcotest.(check (array int))
        (name ^ " one request per leading shard")
        [| 1; 1; 1; 0; 0; 0; 0; 0 |]
        r.Fleet.per_node_requests;
      Alcotest.(check int)
        (name ^ " idle token rows")
        5
        (Array.fold_left (fun n t -> if t = 0.0 then n + 1 else n) 0 r.Fleet.per_node_tokens))
    non_sa;
  let r =
    Fleet.run ~policy:Fleet.Session_affinity ~requests:3 ~seed:1 cfg (chat_spec cfg 0.5)
  in
  Alcotest.(check int) "sa conserves" 3 Fleet.(r.dispatched + r.dropped)

let test_fleet_shard_counts () =
  (* No events, so nothing drops: each shard routes exactly the requests
     it was apportioned, 1003 = 251 + 251 + 251 + 250. *)
  let cfg = fleet_config 64 4 in
  List.iter
    (fun policy ->
      let r = Fleet.run ~policy ~requests:1003 ~seed:2 cfg (chat_spec cfg 0.6) in
      Alcotest.(check (array int))
        (Fleet.policy_name policy ^ " per-shard counts")
        [| 251; 251; 251; 250 |] (shard_sums cfg r))
    non_sa

let test_fleet_session_affinity_home_shard () =
  (* A dozen users over 8 shards: every request lands in its user's home
     shard, even with a quarter of the nodes failing mid-trace, and only
     home shards see work. *)
  let cfg = fleet_config 64 8 in
  let users = 12 in
  let spec = { (chat_spec cfg 0.1) with Arrivals.users } in
  let shard_of g = g * cfg.Fleet.shards / cfg.Fleet.nodes in
  let home_shards = List.init users (fun u -> shard_of (Fleet.home_node cfg u)) in
  let calm =
    Fleet.run ~domains:2 ~policy:Fleet.Session_affinity ~requests:3_000 ~seed:4 cfg spec
  in
  let homes = List.init users (Fleet.home_node cfg) in
  Array.iteri
    (fun g n ->
      if n > 0 then
        Alcotest.(check bool) (Printf.sprintf "node %d is a home node" g) true
          (List.mem g homes))
    calm.Fleet.per_node_requests;
  let r =
    Fleet.run ~domains:2 ~node_events:(chaos cfg) ~policy:Fleet.Session_affinity
      ~requests:3_000 ~seed:4 cfg spec
  in
  Alcotest.(check int) "conserves" 3_000 Fleet.(r.dispatched + r.dropped);
  Array.iteri
    (fun k n ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d: %d requests, home shard %b" k n
           (List.mem k home_shards))
        (List.mem k home_shards) (n > 0))
    (shard_sums cfg r)

let test_fleet_fail_after_last_arrival () =
  (* Offered at 3x capacity, so every node ends the trace with a backlog
     about twice the trace's length.  A Fail halfway through that backlog
     comes after every shard's last arrival and must still shed it. *)
  let cfg = fleet_config 8 4 in
  let spec = chat_spec cfg 3.0 in
  let requests = 4_000 in
  let trace_s = float requests /. Arrivals.mean_rate_per_s spec in
  let node_events = [| { Fleet.at_s = 2.0 *. trace_s; node = 0; kind = Fleet.Fail } |] in
  let run domains =
    Fleet.run ~domains ~node_events ~policy:Fleet.Least_loaded ~requests ~seed:23 cfg spec
  in
  let r = run 1 in
  Alcotest.(check bool)
    (Printf.sprintf "late Fail moved %.0f tokens" r.Fleet.redispatched_tokens)
    true
    (r.Fleet.redispatched_tokens > 0.0);
  Alcotest.(check int) "conserves" requests Fleet.(r.dispatched + r.dropped);
  let node_sum = Array.fold_left ( +. ) 0.0 r.Fleet.per_node_tokens in
  Alcotest.(check bool) "per-node ledger = total" true
    (abs_float (node_sum -. r.Fleet.total_tokens) /. r.Fleet.total_tokens < 1e-9);
  Alcotest.(check bool) "j=1 = j=4" true
    (String.equal (Marshal.to_string r []) (Marshal.to_string (run 4) []))

let test_fleet_shards_agree_with_one () =
  (* Splitting the trace into per-shard substreams is exact for Poisson
     arrivals; what changes is routing scope (least-loaded within a
     shard), which at 70% load costs little. *)
  let run shards =
    let cfg = fleet_config 64 shards in
    Fleet.run ~domains:2 ~policy:Fleet.Least_loaded ~requests:40_000 ~seed:8 cfg
      (chat_spec cfg 0.7)
  in
  let one = run 1 and four = run 4 in
  let rel a b = abs_float (a -. b) /. b in
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.4g vs %.4g" four.Fleet.throughput_tokens_per_s
       one.Fleet.throughput_tokens_per_s)
    true
    (rel four.Fleet.throughput_tokens_per_s one.Fleet.throughput_tokens_per_s < 0.02);
  let p50 r = Obs.Sketch.quantile r.Fleet.ttft 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "TTFT p50 %.4g vs %.4g" (p50 four) (p50 one))
    true
    (rel (p50 four) (p50 one) < 0.10)

(* The headline fleet (2,000 nodes, chat at 85% of capacity, least-loaded,
   seed 7) run serially: worker-domain allocations are invisible to
   [Gc.minor_words], so only ~domains:1 measures the dispatch path. *)
let headline_run ?obs requests =
  let cfg = Fleet.config_of_model ~nodes:2_000 config in
  Fleet.run ~domains:1 ?obs ~policy:Fleet.Least_loaded ~requests ~seed:7 cfg
    (chat_spec cfg 0.85)

let test_fleet_words_per_request () =
  (* The dispatch path allocates nothing per request: the samples reach
     their sketches through a flat cell and the drain check reads the
     cool-down heap's first key in place, so what remains is setup, well
     under one word per request.  A counters-only sink adds at most one word per request:
     the run publishes its telemetry once, at the end.
     Gc.minor_words is exact for the calling domain; Gc.allocated_bytes
     drifts by several words/request between identical runs while a
     second domain is alive. *)
  let requests = 100_000 in
  let per_request ?obs () =
    (* A full major first: no collection work an earlier suite left
       pending runs inside the window. *)
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    ignore (headline_run ?obs requests);
    (Gc.minor_words () -. w0) /. float_of_int requests
  in
  let off = per_request () in
  let on = per_request ~obs:(Obs.Sink.create ~events:false ()) () in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words/request <= 1" off)
    true (off <= 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "obs on %.2f <= obs off %.2f + 1 words/request" on off)
    true (on <= off +. 1.0)

(* MMPP bursts with a Pareto decode tail and a 10% failure wave: the
   marginal minor words per request between 10^4 and 10^5 requests, so
   the per-run set-up (sketches, node arrays, heaps) cancels and what is
   left is the request path.  Both failure waves fall inside the shorter
   trace. *)
let marginal_words_per_request cfg policy =
  let shape =
    {
      Arrivals.process = Arrivals.Mmpp { rates_per_s = [| 0.5; 2.0 |]; mean_dwell_s = 1.0 };
      prefill = Arrivals.Geometric { mean = 512 };
      decode = Arrivals.Pareto { alpha = 1.5; xmin = 128.0 /. 3.0; cap = 12_800 };
      users = 10_000;
    }
  in
  let spec = Arrivals.with_mean_rate shape (near_capacity cfg shape 0.8) in
  let short = 10_000 and long = 100_000 in
  let span = float short /. Arrivals.mean_rate_per_s spec in
  let node_events =
    Fleet.fail_recover_schedule ~nodes:cfg.Fleet.nodes ~fraction:0.1 ~at_s:(span /. 4.0)
      ~recover_after_s:(span /. 4.0)
  in
  let words requests =
    (* A full major first: no collection work an earlier suite left
       pending runs inside the window. *)
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    let r = Fleet.run ~domains:1 ~node_events ~policy ~requests ~seed:7 cfg spec in
    let w = Gc.minor_words () -. w0 in
    Alcotest.(check int) "conserves" requests Fleet.(r.dispatched + r.dropped);
    w
  in
  let a = words short in
  let b = words long in
  (b -. a) /. float (long - short)

let test_fleet_words_per_request_policies () =
  let cfg = Fleet.config_of_model ~nodes:2_000 config in
  List.iter
    (fun policy ->
      let marginal = marginal_words_per_request cfg policy in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.4f words/request <= 0.1" (Fleet.policy_name policy) marginal)
        true (marginal <= 0.1))
    [ Fleet.Power_aware; Fleet.Round_robin ]

(* Cool-downs of 50 ms: nodes turn hot and cold thousands of times, so
   the cool-down heap's take and re-key run on a good share of the
   requests.  Its earliest deadline is a flat read of the heap's first
   key; a boxed float on each cool-down read 0.20-0.27 words/request. *)
let test_fleet_words_per_request_short_cooldown () =
  let cfg = { (Fleet.config_of_model ~nodes:2_000 config) with Fleet.idle_after_s = 0.05 } in
  List.iter
    (fun policy ->
      let marginal = marginal_words_per_request cfg policy in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.4f words/request <= 0.01" (Fleet.policy_name policy) marginal)
        true (marginal <= 0.01))
    [ Fleet.Round_robin; Fleet.Least_loaded; Fleet.Session_affinity; Fleet.Power_aware ]

let test_fleet_sink_flat () =
  (* A counters-only sink retains the same words at 10x the requests: the
     fleet's telemetry is bounded by its series, not by the trace. *)
  let words n =
    let obs = Obs.Sink.create ~events:false () in
    ignore (headline_run ~obs n);
    Obs.Sink.live_words obs
  in
  Alcotest.(check int) "live words at 10^4 = at 10^5 requests" (words 10_000)
    (words 100_000)

let test_fleet_sweep_frontier () =
  let cfg = fleet_config 16 2 in
  let spec = Arrivals.chat ~rate_per_s:1.0 in
  let capacity = Fleet.capacity_req_per_s cfg spec in
  let pts =
    Fleet.sweep ~policies:[ Fleet.Least_loaded ]
      ~rates:[ capacity *. 0.5; capacity *. 3.0 ]
      ~requests:6_000 ~seed:21
      (* Short trace, so the overload queue only reaches ~0.2 s; pin the
         objective between the two regimes (30x above the uncongested
         point, 3x below the congested one). *)
      { Fleet.max_ttft_p99_s = 0.05; max_e2e_p99_s = 30.0 }
      cfg spec
  in
  match pts with
  | [ low; high ] ->
      Alcotest.(check bool)
        (Printf.sprintf "half capacity meets SLO (ttft p99 %.4f)" low.Fleet.ttft_p99_s)
        true low.Fleet.meets_slo;
      Alcotest.(check bool)
        (Printf.sprintf "3x capacity violates SLO (ttft p99 %.4f)" high.Fleet.ttft_p99_s)
        true (not high.Fleet.meets_slo);
      Alcotest.(check bool) "queueing grows with load" true
        (high.Fleet.ttft_p99_s > low.Fleet.ttft_p99_s)
  | _ -> Alcotest.fail "two frontier points expected"

let test_fleet_run_validation () =
  let cfg = fleet_config 8 2 in
  let spec = Arrivals.chat ~rate_per_s:10.0 in
  let rejects f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "shards > nodes" true
    (rejects (fun () ->
         Fleet.run ~policy:Fleet.Least_loaded ~requests:10 ~seed:1
           { cfg with Fleet.shards = 9 } spec));
  Alcotest.(check bool) "unsorted events" true
    (rejects (fun () ->
         Fleet.run
           ~node_events:
             [|
               { Fleet.at_s = 1.0; node = 0; kind = Fleet.Fail };
               { Fleet.at_s = 0.5; node = 1; kind = Fleet.Fail };
             |]
           ~policy:Fleet.Least_loaded ~requests:10 ~seed:1 cfg spec))

(* --- Power_aware properties ------------------------------------------------ *)

type pa_case = {
  nodes : int;
  shards : int;
  rack_size : int;
  cap : int;
  idle_after_s : float;
  load : float;
  requests : int;
  seed : int;
  events : (float * int * int) list;  (* trace fraction, node, kind *)
}

let pa_case_gen =
  let open QCheck.Gen in
  let* nodes = int_range 8 64 in
  let* shards = int_range 1 4 in
  let* rack_size = int_range 2 8 in
  let* cap = int_range 1 rack_size in
  let* idle_after_s =
    oneof [ return 0.0; return 1e9; map (fun e -> 10.0 ** e) (float_range (-4.0) 1.0) ]
  in
  let* load = float_range 0.3 1.5 in
  let* requests = int_range 200 2_000 in
  let* seed = int_range 1 1_000_000 in
  let+ events =
    list_size (int_range 0 16)
      (triple (float_range 0.0 1.2) (int_range 0 (nodes - 1)) (int_range 0 2))
  in
  { nodes; shards; rack_size; cap; idle_after_s; load; requests; seed; events }

let pa_case_print c =
  Printf.sprintf
    "nodes=%d shards=%d rack=%d cap=%d idle=%g load=%g requests=%d seed=%d events=[%s]"
    c.nodes c.shards c.rack_size c.cap c.idle_after_s c.load c.requests c.seed
    (String.concat "; "
       (List.map (fun (f, n, k) -> Printf.sprintf "%.3f:%d:%d" f n k) c.events))

let pa_run c policy =
  let cfg =
    {
      (Fleet.config_of_model ~nodes:c.nodes ~shards:c.shards config) with
      Fleet.rack_size = c.rack_size;
      rack_power_cap = c.cap;
      idle_after_s = c.idle_after_s;
    }
  in
  let spec = chat_spec cfg c.load in
  let span = float c.requests /. Arrivals.mean_rate_per_s spec in
  let node_events =
    c.events
    |> List.map (fun (f, node, k) ->
           {
             Fleet.at_s = f *. span;
             node;
             kind = (match k with 0 -> Fleet.Fail | 1 -> Fleet.Drain | _ -> Fleet.Recover);
           })
    |> List.stable_sort (fun a b -> compare a.Fleet.at_s b.Fleet.at_s)
    |> Array.of_list
  in
  Fleet.run ~domains:1 ~node_events ~policy ~requests:c.requests ~seed:c.seed cfg spec

let prop_power_aware =
  QCheck.Test.make ~name:"power-aware: cap, conservation, uncapped = least-loaded"
    ~count:200
    (QCheck.make ~print:pa_case_print pa_case_gen)
    (fun c ->
      let pa = pa_run c Fleet.Power_aware in
      (pa.Fleet.power_cap_overrides > 0 || pa.Fleet.peak_rack_hot <= c.cap)
      && pa.Fleet.dispatched + pa.Fleet.dropped = c.requests
      (* No rack can block a node once the cap covers the whole rack. *)
      && (c.cap < c.rack_size
         || String.equal (Marshal.to_string pa [])
              (Marshal.to_string (pa_run c Fleet.Least_loaded) [])))

let suites =
  [
    ( "gpu-equivalence",
      [
        Alcotest.test_case "batch 1 = Table 2" `Quick test_scaling_batch1_is_table2;
        Alcotest.test_case "batching shrinks cluster" `Quick test_scaling_batching_shrinks_cluster;
        Alcotest.test_case "paper equivalence" `Quick test_scaling_paper_equivalence;
        Alcotest.test_case "table" `Quick test_scaling_table_renders;
      ] );
    ( "fleet",
      [
        Alcotest.test_case "deterministic across -j with chaos" `Quick
          test_fleet_run_deterministic_across_domains;
        Alcotest.test_case "all policies deterministic" `Quick
          test_fleet_policies_deterministic;
        Alcotest.test_case "conservation and accounting" `Quick
          test_fleet_conservation_and_accounting;
        Alcotest.test_case "LL <= RR imbalance on heavy tail" `Quick
          test_fleet_ll_beats_rr_on_heavy_tail;
        Alcotest.test_case "session affinity pins users" `Quick
          test_fleet_session_affinity_pins_users;
        Alcotest.test_case "rack power cap" `Quick test_fleet_power_cap_respected;
        Alcotest.test_case "total outage drops" `Quick test_fleet_total_outage_drops;
        Alcotest.test_case "idle nodes report zero" `Quick
          test_fleet_idle_nodes_report_zero;
        Alcotest.test_case "SLO capacity frontier" `Quick test_fleet_sweep_frontier;
        Alcotest.test_case "fleet validation" `Quick test_fleet_run_validation;
        Alcotest.test_case "fewer requests than shards" `Quick
          test_fleet_fewer_requests_than_shards;
        Alcotest.test_case "per-shard request counts" `Quick test_fleet_shard_counts;
        Alcotest.test_case "session affinity stays in home shard" `Quick
          test_fleet_session_affinity_home_shard;
        Alcotest.test_case "fail after the last arrival" `Quick
          test_fleet_fail_after_last_arrival;
        Alcotest.test_case "4 shards ~ 1 shard" `Quick test_fleet_shards_agree_with_one;
        Alcotest.test_case "words per request" `Quick test_fleet_words_per_request;
        Alcotest.test_case "words per request: pa and rr" `Quick
          test_fleet_words_per_request_policies;
        Alcotest.test_case "words per request: short cool-downs" `Quick
          test_fleet_words_per_request_short_cooldown;
        Alcotest.test_case "sink flat 10^4 vs 10^5" `Quick test_fleet_sink_flat;
      ] );
    ("power-aware", [ QCheck_alcotest.to_alcotest ~long:false prop_power_aware ]);
  ]
