(* Prints one line per case: the fleet under every policy, arrival
   process, failure schedule and domain count; power-aware routing under
   tight rack caps, cool-downs, drains, failures and forced overrides;
   the token-level Scheduler across loads, context-aware latency, slot
   failures, equal-time ties and an [obs] sink; one arrival trace per
   process and length kind; the Rng streams; the reference Transformer's
   and the 16-chip Dataflow's logits; [Vec.top_k] orders; and
   Metal-Embedding GEMV outputs.
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
  (* Equal-time ties: which of two events at one time pops first is the
     event queue's order, so these pin it. *)
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
    r

(* --- Fleet set-up ------------------------------------------------------ *)

let config_cases () =
  List.iter
    (fun context ->
      let c = Fleet.config_of_model ~context ~nodes:2_000 model in
      Printf.printf "config context=%d prefill=%h decode=%h token_latency=%h\n" context
        c.Fleet.prefill_tokens_per_s c.Fleet.decode_tokens_per_s
        c.Fleet.decode_token_latency_s)
    [ 2048; 8192; 65536 ]

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
          let trace =
            md5 (fun b ->
                for _ = 1 to n do
                  Arrivals.next c;
                  Printf.bprintf b "%h %d %d %d %d\n" (Arrivals.arrival_s c)
                    (Arrivals.prefill_tokens c) (Arrivals.decode_tokens c)
                    (Arrivals.user c) (Arrivals.mmpp_state c)
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
  stream "int7" string_of_int (fun g -> Rng.int g 7)

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

let () =
  fleet_cases ();
  pa_cases ();
  scheduler_cases ();
  config_cases ();
  arrival_cases ();
  rng_cases ();
  forward_cases ();
  top_k_cases ();
  me_cases ()
