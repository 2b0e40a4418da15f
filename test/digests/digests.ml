(* Prints one line per case: the fleet under every policy, arrival
   process, failure schedule and domain count; power-aware routing under
   tight rack caps, cool-downs, drains, failures and forced overrides;
   the token-level Scheduler across loads, context-aware latency, slot
   failures, equal-time ties (arrivals on wakeup and completion times),
   an [obs] sink and a fully traced run's JSON; one arrival trace per
   process and length kind; the Rng streams; the reference Transformer's
   and the 16-chip Dataflow's logits; [Vec.top_k] orders; the
   Metal-Embedding, Cell-Embedding and MAC-array GEMV outputs; and the
   codes [Gemv.random] draws; the closed-form [Perf] breakdowns at every
   Figure 14 context, its stage times and chunked prefill rate; and one
   sketch fed samples of both signs.
   Floats print as %h (exact hex), ints plainly; a field named [md5]
   digests a longer rendering in the same notation, so the file does not
   depend on the toolchain's Marshal format. *)

open Hnlpu

let model = Config.gpt_oss_120b

let md5 f =
  let b = Buffer.create 4096 in
  f b;
  Digest.to_hex (Digest.string (Buffer.contents b))

let sketch_fields name s =
  let q = Obs.Sketch.quantile s in
  Printf.sprintf "%s=%d/%h/%h/%h" name (Obs.Sketch.count s) (q 0.5) (q 0.99)
    (Obs.Sketch.max_v s)

let result_line label (r : Fleet.result) =
  let rows =
    md5 (fun b ->
        Array.iteri
          (fun i t ->
            Printf.bprintf b "%h %d\n" t r.Fleet.per_node_requests.(i))
          r.Fleet.per_node_tokens)
  in
  Printf.printf
    "%s dispatched=%d dropped=%d peak_rack_hot=%d overrides=%d tokens=%h \
     redispatched=%h makespan=%h imbalance=%h util=%h %s %s %s nodes_md5=%s\n"
    label r.Fleet.dispatched r.Fleet.dropped r.Fleet.peak_rack_hot
    r.Fleet.power_cap_overrides r.Fleet.total_tokens r.Fleet.redispatched_tokens
    r.Fleet.makespan_s r.Fleet.imbalance r.Fleet.mean_utilization
    (sketch_fields "ttft" r.Fleet.ttft)
    (sketch_fields "e2e" r.Fleet.e2e)
    (sketch_fields "queue" r.Fleet.queue_wait)
    rows

(* --- Fleet: 4 policies x 3 processes x with/without failures x j ------- *)

let pareto = Arrivals.Pareto { alpha = 1.5; xmin = 40.0; cap = 4096 }

let processes =
  [
    ("poisson", Arrivals.Poisson { rate_per_s = 1.0 }, Arrivals.Geometric { mean = 128 });
    ( "mmpp",
      Arrivals.Mmpp { rates_per_s = [| 0.5; 2.0; 1.0 |]; mean_dwell_s = 0.2 },
      pareto );
    ( "diurnal",
      Arrivals.Diurnal { mean_rate_per_s = 1.0; amplitude = 0.6; period_s = 0.5 },
      Arrivals.Geometric { mean = 96 } );
  ]

let policies =
  [ Fleet.Round_robin; Fleet.Least_loaded; Fleet.Session_affinity; Fleet.Power_aware ]

let fleet_cases () =
  let requests = 3_000 in
  let cfg =
    {
      (Fleet.config_of_model ~nodes:96 ~shards:4 model) with
      Fleet.rack_size = 8;
      rack_power_cap = 6;
      idle_after_s = 0.05;
    }
  in
  List.iter
    (fun (pname, process, decode) ->
      let shape =
        { Arrivals.process; prefill = Arrivals.Geometric { mean = 256 }; decode; users = 500 }
      in
      let spec =
        Arrivals.with_mean_rate shape (0.8 *. Fleet.capacity_req_per_s cfg shape)
      in
      let span = float requests /. Arrivals.mean_rate_per_s spec in
      let chaos =
        Fleet.fail_recover_schedule ~nodes:cfg.Fleet.nodes ~fraction:0.2
          ~at_s:(span /. 3.0) ~recover_after_s:(span /. 4.0)
      in
      List.iter
        (fun policy ->
          List.iter
            (fun (fname, node_events) ->
              List.iter
                (fun j ->
                  let r =
                    Fleet.run ~domains:j ~node_events ~policy ~requests ~seed:31 cfg spec
                  in
                  result_line
                    (Printf.sprintf "fleet %s %s %s j=%d" (Fleet.policy_name policy)
                       pname fname j)
                    r)
                [ 1; 2; 4 ])
            [ ("calm", [||]); ("fail", chaos) ])
        policies)
    processes

(* --- Fleet at the dispatch block's edges: shards of 255, 256 and 257 ---- *)

(* Arrival [k] (1-based) of [shard]'s own substream, drawn as [Fleet.run]
   draws it: the spec at the shard's share of the rate, on stream
   [shard] of the seed. *)
let shard_arrival ~seed ~share ~users spec shard k =
  let sspec = Arrivals.with_mean_rate spec (Arrivals.mean_rate_per_s spec *. share) in
  let c = Arrivals.create ~stream:shard ~seed { sspec with Arrivals.users } in
  for _ = 1 to k do
    Arrivals.next c
  done;
  Arrivals.arrival_s c

(* Three shards of 8 nodes.  Least_loaded splits 767 requests 256/256/255
   and 769 as 257/256/256; Session_affinity over 1,468 users splits 768
   as 257/255/256.  Shard 0 loses a node at exactly its 256th arrival,
   shard 1 one at exactly its 255th, and the first comes back at shard
   0's 257th (past the last arrival the 767-request run routes). *)
let block_cases () =
  let nodes = 24 and shards = 3 and users = 1_468 and seed = 43 in
  let cfg = Fleet.config_of_model ~nodes ~shards model in
  let shape = { (Arrivals.chat ~rate_per_s:1.0) with Arrivals.users } in
  let spec = Arrivals.with_mean_rate shape (0.9 *. Fleet.capacity_req_per_s cfg shape) in
  let lo s = s * nodes / shards in
  List.iter
    (fun (policy, requests) ->
      let share, pool =
        match policy with
        | Fleet.Session_affinity ->
          let homed s =
            let n = ref 0 in
            for u = 0 to users - 1 do
              let g = Fleet.home_node cfg u in
              if g >= lo s && g < lo (s + 1) then incr n
            done;
            !n
          in
          ((fun s -> float (homed s) /. float users), homed)
        | _ -> ((fun _ -> 1.0 /. float shards), fun _ -> users)
      in
      let at s k = shard_arrival ~seed ~share:(share s) ~users:(pool s) spec s k in
      let events =
        [|
          { Fleet.at_s = at 0 256; node = lo 0 + 1; kind = Fleet.Fail };
          { Fleet.at_s = at 1 255; node = lo 1 + 2; kind = Fleet.Fail };
          { Fleet.at_s = at 0 257; node = lo 0 + 1; kind = Fleet.Recover };
        |]
      in
      Array.stable_sort (fun a b -> Float.compare a.Fleet.at_s b.Fleet.at_s) events;
      let r = Fleet.run ~domains:1 ~node_events:events ~policy ~requests ~seed cfg spec in
      result_line
        (Printf.sprintf "fleet %s block requests=%d" (Fleet.policy_name policy) requests)
        r)
    [ (Fleet.Least_loaded, 767); (Fleet.Least_loaded, 769); (Fleet.Session_affinity, 768) ]

(* --- Power-aware stress: tight caps, short cool-downs, every event ----- *)

let pa_events ~nodes ~span =
  let at f = span *. f in
  let ev f node kind = { Fleet.at_s = at f; node; kind } in
  [|
    ev 0.10 3 Fleet.Drain;
    ev 0.15 5 Fleet.Fail;
    ev 0.15 (nodes - 1) Fleet.Fail;
    ev 0.20 9 Fleet.Recover (* never failed: a no-op *);
    ev 0.30 3 Fleet.Recover;
    ev 0.35 3 Fleet.Fail;
    ev 0.40 12 Fleet.Drain;
    ev 0.40 12 Fleet.Fail;
    ev 0.45 5 Fleet.Recover;
    ev 0.55 (nodes / 2) Fleet.Fail;
    ev 0.60 12 Fleet.Recover;
    ev 0.70 (nodes - 1) Fleet.Recover;
    ev 0.80 3 Fleet.Recover;
    ev 0.85 (nodes / 2) Fleet.Recover;
  |]

let pa_cases () =
  let requests = 2_000 and nodes = 40 in
  let base = Fleet.config_of_model ~nodes ~shards:2 model in
  let spec_for cfg load =
    let shape = { (Arrivals.chat ~rate_per_s:1.0) with Arrivals.decode = pareto } in
    Arrivals.with_mean_rate shape (load *. Fleet.capacity_req_per_s cfg shape)
  in
  for rack_size = 4 to 8 do
    for cap = 1 to rack_size - 1 do
      let cfg =
        { base with Fleet.rack_size; rack_power_cap = cap; idle_after_s = 0.01 }
      in
      let spec = spec_for cfg 0.6 in
      let span = float requests /. Arrivals.mean_rate_per_s spec in
      let r =
        Fleet.run ~domains:1 ~node_events:(pa_events ~nodes ~span)
          ~policy:Fleet.Power_aware ~requests ~seed:(100 + (10 * rack_size) + cap) cfg spec
      in
      result_line (Printf.sprintf "pa rack=%d cap=%d" rack_size cap) r
    done
  done;
  (* Cap 1 and no cool-down: the first node of each rack takes the rack's
     only hot slot.  Failing exactly those nodes leaves every active node
     cold inside a capped rack, so routing must override the cap. *)
  let rack_size = 8 in
  let cfg =
    { base with Fleet.rack_size; rack_power_cap = 1; idle_after_s = 1e9 }
  in
  let spec = spec_for cfg 0.9 in
  let span = float requests /. Arrivals.mean_rate_per_s spec in
  let node_events =
    Array.init (nodes / rack_size) (fun k ->
        { Fleet.at_s = span /. 3.0; node = k * rack_size; kind = Fleet.Fail })
  in
  let r =
    Fleet.run ~domains:1 ~node_events ~policy:Fleet.Power_aware ~requests ~seed:5 cfg spec
  in
  result_line "pa overrides" r

(* --- Scheduler: loads x context_aware x slot failures, ties, obs ------- *)

(* Where the Scheduler saturates on the chat mix (hnbench's node-chat
   offers 50% and 120% of it). *)
let saturation_req_per_s = 829.0

let sched_requests = 200

let chat_requests ~seed ~load =
  Scheduler.requests ~n:sched_requests
    (Arrivals.create ~seed
       (Arrivals.chat ~rate_per_s:(load *. saturation_req_per_s)))

(* Completion order matters: the digest walks [completed_requests] as
   returned. *)
let scheduler_line label (r : Scheduler.result) =
  let rows =
    md5 (fun b ->
        List.iter
          (fun (c : Scheduler.completed) ->
            Printf.bprintf b "%h %h %h\n" c.Scheduler.first_token_s
              c.Scheduler.finish_s c.Scheduler.queue_wait_s)
          r.Scheduler.completed_requests)
  in
  Printf.printf
    "%s makespan=%h tokens=%d decode=%d throughput=%h occupancy=%h rows_md5=%s\n"
    label r.Scheduler.makespan_s r.Scheduler.tokens_processed
    r.Scheduler.decode_tokens_out r.Scheduler.throughput_tokens_per_s
    r.Scheduler.mean_slot_occupancy rows

let scheduler_cases () =
  List.iter
    (fun seed ->
      List.iter
        (fun load ->
          let reqs = chat_requests ~seed ~load in
          let span = float sched_requests /. (load *. saturation_req_per_s) in
          (* Two steps: a third of the 216 slots, then another sixth. *)
          let steps = [ (span /. 3.0, 72); (span *. 2.0 /. 3.0, 36) ] in
          List.iter
            (fun context_aware ->
              List.iter
                (fun (fname, slot_failures) ->
                  scheduler_line
                    (Printf.sprintf "sched seed=%d load=%h ca=%b %s" seed load
                       context_aware fname)
                    (Scheduler.simulate ~context_aware ~slot_failures model reqs))
                [ ("calm", []); ("fail", steps) ])
            [ false; true ])
        [ 0.5; 1.2; 3.0 ])
    [ 1; 2 ];
  (* Chat sequences stay below 2,048 positions, where [context_aware]
     changes nothing; long sequences cross the bucket boundaries. *)
  let long =
    {
      (Arrivals.chat ~rate_per_s:40.0) with
      Arrivals.prefill = Arrivals.Geometric { mean = 1536 };
      decode = Arrivals.Geometric { mean = 768 };
    }
  in
  let reqs = Scheduler.requests ~n:30 (Arrivals.create ~seed:5 long) in
  List.iter
    (fun (fname, slot_failures) ->
      scheduler_line
        (Printf.sprintf "sched long ca=true %s" fname)
        (Scheduler.simulate ~context_aware:true ~slot_failures model reqs))
    [ ("calm", []); ("fail", [ (0.2, 72); (0.4, 36) ]) ];
  (* Equal-time ties: which of two events at one time goes first is the
     merge's order, so these pin it. *)
  let reqs = chat_requests ~seed:3 ~load:1.2 in
  let at_zero =
    List.map (fun q -> { q with Scheduler.arrival_s = 0.0 }) reqs
  in
  scheduler_line "sched ties all-at-zero"
    (Scheduler.simulate model at_zero);
  (* Arrival times on a 5 ms grid: runs of requests share a time. *)
  let gridded =
    List.map
      (fun q ->
        {
          q with
          Scheduler.arrival_s =
            Float.of_int (Float.to_int (q.Scheduler.arrival_s /. 5e-3)) *. 5e-3;
        })
      reqs
  in
  scheduler_line "sched ties duplicate-times"
    (Scheduler.simulate ~context_aware:true model gridded);
  (* The same requests in a seeded shuffle. *)
  let shuffled = Array.of_list reqs in
  let g = Rng.create 11 in
  for i = Array.length shuffled - 1 downto 1 do
    let j = Rng.int g (i + 1) in
    let x = shuffled.(i) in
    shuffled.(i) <- shuffled.(j);
    shuffled.(j) <- x
  done;
  scheduler_line "sched ties unsorted"
    (Scheduler.simulate
       ~slot_failures:[ (0.05, 100); (0.02, 50) ]
       model (Array.to_list shuffled));
  (* An [obs] sink: the result is the uninstrumented one, and the
     histograms count every request. *)
  let obs = Obs.Sink.create () in
  let r = Scheduler.simulate ~obs model (chat_requests ~seed:4 ~load:0.5) in
  let m = Obs.Sink.metrics obs in
  let count name =
    match Obs.Metrics.histogram m name with
    | Some s -> s.Obs.Metrics.count
    | None -> -1
  in
  scheduler_line
    (Printf.sprintf "sched obs ttft=%d e2e=%d queue_wait=%d"
       (count "scheduler/ttft_s") (count "scheduler/e2e_s")
       (count "scheduler/queue_wait_s"))
    r;
  (* Arrivals on the merge's own event times.  A long request from 0
     keeps the pipeline entry busy, so wakeups fall on the chain
     [t +. ii] from 0 and its tokens complete a bucket latency after
     their entry; the other requests arrive on chain times and on chain
     times plus the first two buckets' latencies, so arrivals tie with
     wakeups and with completions of both buckets. *)
  let latency k = Perf.token_latency_cached model ~context:(2048 lsl k) in
  let ii = latency 0 /. float (Perf.pipeline_slots model) in
  let chain = Float.Array.make 1200 0.0 in
  for k = 1 to Float.Array.length chain - 1 do
    Float.Array.set chain k (Float.Array.get chain (k - 1) +. ii)
  done;
  let on_ties =
    { Scheduler.arrival_s = 0.0; prefill_tokens = 2300; decode_tokens = 40 }
    :: List.concat_map
         (fun i ->
           let t = Float.Array.get chain (1 + (19 * i)) in
           List.map
             (fun arrival_s ->
               {
                 Scheduler.arrival_s;
                 prefill_tokens = 1 + (i mod 5);
                 decode_tokens = 1 + (i mod 3);
               })
             [ t; t +. latency 0; t +. latency 1 ])
         (List.init 60 Fun.id)
  in
  List.iter
    (fun context_aware ->
      scheduler_line
        (Printf.sprintf "sched ties on-events ca=%b" context_aware)
        (Scheduler.simulate ~context_aware model on_ties))
    [ false; true ];
  (* Whole-latency and whole-[ii] grids: multiples rather than the chain
     of sums, for ties the chain's rounding misses. *)
  let on_grid step =
    List.init 120 (fun i ->
        {
          Scheduler.arrival_s = float (i / 2) *. step;
          prefill_tokens = 1 + (i * 337 mod 2400);
          decode_tokens = 1 + (i * 11 mod 40);
        })
  in
  List.iter
    (fun (gname, step) ->
      List.iter
        (fun context_aware ->
          scheduler_line
            (Printf.sprintf "sched ties grid=%s ca=%b" gname context_aware)
            (Scheduler.simulate ~context_aware model (on_grid step)))
        [ false; true ])
    [ ("latency", latency 0); ("ii", ii) ];
  (* A traced run with a full sink: the timeline and the registry the
     obs calls build from the loop's clock. *)
  let obs = Obs.Sink.create () in
  let r =
    Scheduler.simulate ~obs model
      (Scheduler.requests ~n:40
         (Arrivals.create ~seed:6
            (Arrivals.chat ~rate_per_s:(1.2 *. saturation_req_per_s))))
  in
  Printf.printf "sched traced requests=%d trace_md5=%s metrics_md5=%s\n"
    (List.length r.Scheduler.completed_requests)
    (Digest.to_hex
       (Digest.string (Obs.Chrome_trace.to_json (Obs.Sink.events obs))))
    (Digest.to_hex
       (Digest.string (Obs.Metrics.to_json (Obs.Sink.metrics obs))))

(* --- Fleet set-up ------------------------------------------------------ *)

(* A fleet node runs at context 2048; the longer contexts pin the same
   three Perf rates directly. *)
let config_cases () =
  let line context ~prefill ~decode ~token_latency =
    Printf.printf "config context=%d prefill=%h decode=%h token_latency=%h\n" context
      prefill decode token_latency
  in
  let c = Fleet.config_of_model ~nodes:2_000 model in
  line 2048 ~prefill:c.Fleet.prefill_tokens_per_s ~decode:c.Fleet.decode_tokens_per_s
    ~token_latency:c.Fleet.decode_token_latency_s;
  List.iter
    (fun context ->
      let token_latency = Perf.token_latency_cached model ~context in
      line context
        ~prefill:(Perf.prefill_throughput_cached model ~chunk:8 ~context)
        ~decode:(float_of_int (Perf.pipeline_slots model) /. token_latency)
        ~token_latency)
    [ 8192; 65536 ]

(* --- Perf: Figure 14 breakdowns, Figure 11 stages, chunked prefill ----- *)

(* The stall term only appears at 256K-512K context, which no [config]
   line reaches, so every component is pinned at all six contexts. *)
let perf_cases () =
  List.iter
    (fun context ->
      let b = Perf.token_breakdown model ~context in
      Printf.printf "perf context=%d comm=%h projection=%h nonlinear=%h attention=%h stall=%h\n"
        context b.Perf.comm_s b.Perf.projection_s b.Perf.nonlinear_s b.Perf.attention_s
        b.Perf.stall_s)
    Perf.figure14_contexts;
  List.iter
    (fun (stage, t) -> Printf.printf "perf stage context=2048 %s=%h\n" stage t)
    (Perf.stage_times (Perf.design model ~context:2048));
  Printf.printf "perf prefill chunk=8 context=2048 tokens_per_s=%h\n"
    (Perf.prefill_throughput_tokens_per_s model ~chunk:8 ~context:2048)

(* --- Sketch: both signs, signed zeros ---------------------------------- *)

let sketch_cases () =
  let s = Obs.Sketch.create () in
  List.iter (Obs.Sketch.observe s) [ 0.0; -0.0; 1e-30; -1e-30 ];
  for i = 1 to 500 do
    let x = float_of_int i *. 0.37 in
    Obs.Sketch.observe s x;
    if i mod 3 = 0 then Obs.Sketch.observe s (-.x *. 2.5)
  done;
  let q = Obs.Sketch.quantile s in
  Printf.printf "sketch two-sign count=%d q0=%h q01=%h q50=%h q99=%h q1=%h json_md5=%s\n"
    (Obs.Sketch.count s) (q 0.0) (q 0.01) (q 0.5) (q 0.99) (q 1.0)
    (Digest.to_hex (Digest.string (Obs.Sketch.to_json s)))

(* --- Arrivals: one trace per process x length kind --------------------- *)

let arrival_cases () =
  let n = 20_000 in
  List.iter
    (fun (pname, process, _) ->
      List.iter
        (fun (lname, len) ->
          let spec =
            { Arrivals.process; prefill = len; decode = len; users = 1_000 }
          in
          let c = Arrivals.create ~stream:3 ~seed:17 spec in
          let time = Float.Array.make 1 0.0 and prefill = [| 0 |] and decode = [| 0 |]
          and user = [| 0 |] in
          let trace =
            md5 (fun b ->
                for _ = 1 to n do
                  Arrivals.fill c ~time ~prefill ~decode ~user 1;
                  Printf.bprintf b "%h %d %d %d %d\n" (Float.Array.get time 0) prefill.(0)
                    decode.(0) user.(0) (Arrivals.mmpp_state c)
                done)
          in
          Printf.printf "arrivals %s %s last=%h md5=%s\n" pname lname
            (Arrivals.arrival_s c) trace)
        [ ("geometric", Arrivals.Geometric { mean = 64 }); ("pareto", pareto) ])
    processes

(* --- Rng streams ------------------------------------------------------- *)

let rng_cases () =
  let n = 10_000 in
  let stream name show draw =
    List.iter
      (fun seed ->
        let g = Rng.create seed in
        let first = show (draw g) in
        let rest =
          md5 (fun b ->
              for _ = 2 to n do
                Printf.bprintf b "%s\n" (show (draw g))
              done)
        in
        Printf.printf "rng %s seed=%d first=%s md5=%s\n" name seed first rest)
      [ 1; 42 ]
  in
  stream "bits53" string_of_int Rng.bits53;
  stream "float1" (Printf.sprintf "%h") (fun g -> Rng.float g 1.0);
  stream "float3.5" (Printf.sprintf "%h") (fun g -> Rng.float g 3.5);
  stream "gaussian" (Printf.sprintf "%h") Rng.gaussian;
  stream "exponential2.5" (Printf.sprintf "%h") (fun g -> Rng.exponential g 2.5);
  stream "int1000" string_of_int (fun g -> Rng.int g 1000);
  stream "int7" string_of_int (fun g -> Rng.int g 7);
  List.iter
    (fun bound -> stream (Printf.sprintf "int%d" bound) string_of_int (fun g -> Rng.int g bound))
    [ 1; 16; 256; 10_000 ]

(* --- Datapath: forwards, top-k, Metal-Embedding ------------------------- *)

let logits_md5 forward ~tokens ~seed =
  md5 (fun b ->
      for i = 0 to tokens - 1 do
        let token = ((i * 7) + seed) mod 64 in
        Array.iter (Printf.bprintf b "%h ") (forward ~token);
        Buffer.add_char b '\n'
      done)

let forward_cases () =
  let tokens = 128 in
  List.iter
    (fun (name, config, seed) ->
      let w = Weights.random (Rng.create seed) config in
      let t = Transformer.create w and d = Dataflow.create w in
      Printf.printf "forward %s seed=%d tokens=%d transformer_md5=%s dataflow_md5=%s\n" name
        seed tokens
        (logits_md5 (Transformer.forward t) ~tokens ~seed)
        (logits_md5 (Dataflow.forward d) ~tokens ~seed))
    [
      ("tiny-hnlpu", Config.tiny_hnlpu, 1);
      ("tiny-hnlpu", Config.tiny_hnlpu, 2);
      ("tiny-hnlpu", Config.tiny_hnlpu, 3);
      ("tiny-hnlpu-sw20", { Config.tiny_hnlpu with Config.sliding_window = Some 20 }, 1);
    ]

let top_k_cases () =
  (* Values drawn from a handful of levels, so most entries tie; NaN and
     both zeros among them. *)
  let levels = [| 1.0; -1.0; 0.0; -0.0; 0.5; nan; infinity; neg_infinity |] in
  List.iter
    (fun (n, nlevels) ->
      let g = Rng.create (n + nlevels) in
      let a = Array.init n (fun _ -> levels.(Rng.int g nlevels)) in
      let orders =
        md5 (fun b ->
            for k = 1 to n do
              List.iter (fun (i, v) -> Printf.bprintf b "%d:%h " i v) (Vec.top_k k a);
              Buffer.add_char b '\n'
            done)
      in
      Printf.printf "top_k n=%d levels=%d md5=%s\n" n nlevels orders)
    [ (16, 3); (16, 8); (64, 2); (64, 8); (200, 5) ]

let me_cases () =
  List.iter
    (fun (in_features, out_features, slack) ->
      let g = Rng.create 7 in
      let gemv = Gemv.random g ~in_features ~out_features ~act_bits:8 in
      let me = Metal_embedding.make ~slack gemv in
      let outputs =
        md5 (fun b ->
            for _ = 1 to 8 do
              let x = Gemv.random_activations g gemv in
              Array.iter (Printf.bprintf b "%d ") (fst (Metal_embedding.run me x));
              Buffer.add_char b '\n'
            done)
      in
      Printf.printf "me %dx%d slack=%h md5=%s\n" in_features out_features slack outputs)
    [ (32, 64, 8.0); (1024, 128, 2.0) ]

let gemv_outputs run gemv g =
  md5 (fun b ->
      for _ = 1 to 4 do
        let x = Gemv.random_activations g gemv in
        Array.iter (Printf.bprintf b "%d ") (fst (run x));
        Buffer.add_char b '\n'
      done)

let ce_ma_cases () =
  List.iter
    (fun seed ->
      let g = Rng.create seed in
      let gemv = Gemv.paper_benchmark g in
      let ce = Cell_embedding.make gemv and ma = Mac_array.make gemv in
      (* Both machines see the same activations, drawn after the codes. *)
      Printf.printf "ce paper seed=%d md5=%s\n" seed
        (gemv_outputs (Cell_embedding.run ce) gemv (Rng.copy g));
      Printf.printf "ma paper seed=%d md5=%s\n" seed
        (gemv_outputs (Mac_array.run ma) gemv (Rng.copy g)))
    [ 1; 2; 3 ]

let gemv_random_cases () =
  List.iter
    (fun (in_features, out_features) ->
      let gemv = Gemv.random (Rng.create 5) ~in_features ~out_features ~act_bits:8 in
      let codes =
        md5 (fun b ->
            for o = 0 to out_features - 1 do
              for i = 0 to in_features - 1 do
                Printf.bprintf b "%d " (Fp4.code (Gemv.code gemv o i))
              done;
              Buffer.add_char b '\n'
            done)
      in
      Printf.printf "gemv.random %dx%d md5=%s\n" in_features out_features codes)
    [ (1024, 128); (48, 6) ]

let () =
  fleet_cases ();
  block_cases ();
  pa_cases ();
  scheduler_cases ();
  config_cases ();
  perf_cases ();
  sketch_cases ();
  arrival_cases ();
  rng_cases ();
  forward_cases ();
  top_k_cases ();
  me_cases ();
  ce_ma_cases ();
  gemv_random_cases ()
