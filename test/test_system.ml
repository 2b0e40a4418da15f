open Hnlpu_system
open Hnlpu_util

let config = Hnlpu_model.Config.gpt_oss_120b

(* --- Mapping ----------------------------------------------------------------- *)

let test_mapping_gpt_oss_slices () =
  Mapping.check_mappable config;
  let s = Mapping.wq_slice config ~chip:0 in
  Alcotest.(check int) "Wq rows 720" 720 s.Mapping.row_len;
  Alcotest.(check int) "Wq cols 1024" 1024 s.Mapping.col_len;
  let k = Mapping.wk_slice config ~chip:5 in
  Alcotest.(check int) "Wk cols 128" 128 k.Mapping.col_len;
  Alcotest.(check int) "Wk row offset (row 1)" 720 k.Mapping.row_lo;
  let o = Mapping.wo_slice config ~chip:6 in
  (* chip 6 = row 1, col 2: Wo rows from column, cols from row. *)
  Alcotest.(check int) "Wo row_lo = col*1024" 2048 o.Mapping.row_lo;
  Alcotest.(check int) "Wo col_lo = row*720" 720 o.Mapping.col_lo

let test_mapping_experts () =
  (* gpt-oss: 128 experts -> 8 per chip (§4.2). *)
  List.iter
    (fun chip ->
      Alcotest.(check int) "8 experts" 8
        (List.length (Mapping.experts_of_chip config ~chip)))
    Hnlpu_noc.Topology.all_chips;
  Alcotest.(check int) "expert 17 on chip 1" 1 (Mapping.chip_of_expert config ~expert:17)

let test_mapping_balance () =
  (* The paper's balance claim: every chip hardwires the same share. *)
  let w0 = Mapping.weights_per_chip_per_layer config ~chip:0 in
  List.iter
    (fun chip ->
      Alcotest.(check int) "balanced" w0
        (Mapping.weights_per_chip_per_layer config ~chip))
    Hnlpu_noc.Topology.all_chips

let test_mapping_covers_everything () =
  (* Per-chip weights x 16 = all layer weights + 15 extra router copies. *)
  let per_chip = Mapping.weights_per_chip_per_layer config ~chip:0 in
  let total = 16 * per_chip in
  let expected =
    Hnlpu_model.Params.attention_per_layer config
    + Hnlpu_model.Params.moe_per_layer config
    + (15 * Hnlpu_model.Params.router_per_layer config)
  in
  Alcotest.(check int) "coverage" expected total

let test_mapping_rejects_unmappable () =
  Alcotest.(check bool) "tiny (kv_heads=2) not mappable" true
    (try
       Mapping.check_mappable Hnlpu_model.Config.tiny;
       false
     with Invalid_argument _ -> true)

(* --- Dataflow: distributed = reference ----------------------------------------- *)

let tiny = Hnlpu_model.Config.tiny_hnlpu

(* Max logit difference relative to the reference logits' RMS. *)
let rel_err lr ld =
  let scale = Hnlpu_tensor.Vec.norm2 lr /. sqrt (float_of_int (Array.length lr)) in
  Hnlpu_tensor.Vec.max_abs_diff lr ld /. Float.max scale 1e-12

(* Feeds [tokens] to the reference and the dataflow on the same weights;
   every step's logits must agree.  Returns the last reference logits. *)
let check_dataflow_matches ~seed config tokens =
  let w = Hnlpu_model.Weights.random (Rng.create seed) config in
  let reference = Hnlpu_model.Transformer.create w in
  let distributed = Dataflow.create w in
  List.fold_left
    (fun _ tok ->
      let pos = Dataflow.position distributed in
      let lr = Hnlpu_model.Transformer.forward reference ~token:tok in
      let ld = Dataflow.forward distributed ~token:tok in
      let err = rel_err lr ld in
      Alcotest.(check bool)
        (Printf.sprintf "%s position %d err %.2e" config.Hnlpu_model.Config.name pos err)
        true (err < 1e-4);
      lr)
    [||] tokens

let test_dataflow_matches_reference () =
  ignore (check_dataflow_matches ~seed:77 tiny [ 3; 14; 15; 9; 2; 6 ])

let prop_dataflow_equivalence =
  QCheck.Test.make ~name:"16-chip dataflow = reference transformer" ~count:8
    QCheck.(pair (int_range 0 100000) (list_of_size (Gen.int_range 1 5) (int_range 0 63)))
    (fun (seed, prompt) ->
      let w = Hnlpu_model.Weights.random (Rng.create seed) tiny in
      let reference = Hnlpu_model.Transformer.create w in
      let distributed = Dataflow.create w in
      List.for_all
        (fun tok ->
          let lr = Hnlpu_model.Transformer.forward reference ~token:tok in
          let ld = Dataflow.forward distributed ~token:tok in
          rel_err lr ld < 1e-4)
        prompt)

let test_dataflow_matches_reference_long () =
  (* 48 tokens: past the first growths of both models' flat KV buffers,
     and, with a window of 4, far enough that the even layers' [first_pos]
     filter drops most of every chip's stripe.  The windowed model must
     also really differ from the full one by the end. *)
  let tokens = List.init 48 (fun i -> ((i * 13) + 5) mod 64) in
  let full = check_dataflow_matches ~seed:80 tiny tokens in
  let windowed =
    check_dataflow_matches ~seed:80
      { tiny with Hnlpu_model.Config.name = "tiny-hnlpu-sw4"; sliding_window = Some 4 }
      tokens
  in
  Alcotest.(check bool) "window changes the logits" true
    (Hnlpu_tensor.Vec.max_abs_diff full windowed > 1e-6)

let test_dataflow_kv_striping () =
  let w = Hnlpu_model.Weights.random (Rng.create 78) tiny in
  let d = Dataflow.create w in
  for tok = 0 to 7 do
    ignore (Dataflow.forward d ~token:(tok mod 64))
  done;
  (* 8 positions striped mod 4: every chip holds exactly 2. *)
  List.iter
    (fun chip ->
      Alcotest.(check int) "2 positions per chip" 2
        (Dataflow.kv_positions_on_chip d ~chip ~layer:0))
    Hnlpu_noc.Topology.all_chips

let test_dataflow_collective_pattern () =
  (* The forward runs exactly the layer program: every entry, once per
     group instance, on every layer of every token. *)
  let tokens = 3 in
  let check_config (c : Hnlpu_model.Config.t) =
    let d = Dataflow.create (Hnlpu_model.Weights.random (Rng.create 79) c) in
    for tok = 1 to tokens do
      ignore (Dataflow.forward d ~token:tok)
    done;
    let per_layer kind group =
      List.fold_left
        (fun acc (e : Layer_program.entry) ->
          if e.Layer_program.kind = kind && e.Layer_program.group = group then
            acc + Layer_program.instances group
          else acc)
        0 Layer_program.program
    in
    let got = Dataflow.collectives d in
    let n = tokens * c.Hnlpu_model.Config.num_layers in
    let check name pinned from_program got =
      Alcotest.(check int) (name ^ " per layer in the program") pinned from_program;
      Alcotest.(check int) (c.Hnlpu_model.Config.name ^ ": " ^ name)
        (n * from_program) got
    in
    let open Layer_program in
    check "column all-reduces (Q, stats, partial O)" 12
      (per_layer All_reduce Each_column) got.Dataflow.col_all_reduce;
    check "column reduces (K, V)" 8 (per_layer Reduce Each_column)
      got.Dataflow.col_reduce;
    check "row all-reduces (Xo)" 4 (per_layer All_reduce Each_row)
      got.Dataflow.row_all_reduce;
    check "column all-gathers (Xo)" 4 (per_layer All_gather Each_column)
      got.Dataflow.col_all_gather;
    check "all-chip all-reduces (MoE)" 1
      (per_layer All_chip_all_reduce All_chips)
      got.Dataflow.all_chip_all_reduce
  in
  check_config tiny;
  check_config
    { tiny with Hnlpu_model.Config.name = "tiny-hnlpu-sw4"; sliding_window = Some 4 }

(* --- Perf: Table 2 / Figure 14 --------------------------------------------------- *)

let test_token_latency_magnitude () =
  (* 216 slots / 249,960 tok/s = 864 us. *)
  let l = Perf.token_latency_s config ~context:2048 in
  Alcotest.(check bool) (Printf.sprintf "latency %.1f us" (l *. 1e6)) true
    (Thelp.within_pct 1.0 ~expected:864.1e-6 ~actual:l)

let test_figure14_trends () =
  (* The qualitative claims of §7.4. *)
  let frac context = Perf.fractions (Perf.token_breakdown config ~context) in
  let f2k = frac 2048 and f512k = frac 524288 in
  Alcotest.(check bool) "comm dominates at short context" true (f2k.Perf.comm_s > 0.7);
  Alcotest.(check bool) "attention dominates at long context" true
    (f512k.Perf.attention_s > f512k.Perf.comm_s);
  Alcotest.(check bool) "stalls negligible up to 256K" true
    ((frac 262144).Perf.stall_s < 0.02);
  Alcotest.(check bool) "stalls visible at 512K" true (f512k.Perf.stall_s > 0.05)

let test_latency_monotone_in_context () =
  let l c = Perf.token_latency_s config ~context:c in
  Alcotest.(check bool) "monotone" true (l 2048 < l 65536 && l 65536 < l 524288)

(* --- Scheduler --------------------------------------------------------------- *)

let test_scheduler_conservation () =
  let reqs =
    Thelp.chat_requests ~seed:99 ~n:40 ~rate_per_s:2000.0 ~mean_prefill:30 ~mean_decode:20
  in
  let r = Scheduler.simulate config reqs in
  Alcotest.(check int) "all requests complete" 40 (List.length r.Scheduler.completed_requests);
  let expected_tokens =
    List.fold_left (fun a q -> a + q.Scheduler.prefill_tokens + q.Scheduler.decode_tokens) 0 reqs
  in
  Alcotest.(check int) "token conservation" expected_tokens r.Scheduler.tokens_processed;
  let expected_decode =
    List.fold_left (fun a q -> a + q.Scheduler.decode_tokens) 0 reqs
  in
  Alcotest.(check int) "decode conservation" expected_decode r.Scheduler.decode_tokens_out

let test_scheduler_ordering_invariants () =
  let reqs =
    Thelp.chat_requests ~seed:100 ~n:20 ~rate_per_s:500.0 ~mean_prefill:10 ~mean_decode:10
  in
  let r = Scheduler.simulate config reqs in
  List.iter
    (fun c ->
      Alcotest.(check bool) "first token after arrival" true
        (c.Scheduler.first_token_s > c.Scheduler.request.Scheduler.arrival_s);
      Alcotest.(check bool) "finish after first token" true
        (c.Scheduler.finish_s >= c.Scheduler.first_token_s);
      Alcotest.(check bool) "queue wait nonnegative" true (c.Scheduler.queue_wait_s >= -1e-12))
    r.Scheduler.completed_requests

let test_scheduler_fifo_order () =
  (* Regression: a stalled injection used to pop the queue head and re-push
     it to the back, rotating FIFO order whenever the initiation interval
     delayed admission.  With identical work, first tokens must complete in
     arrival order. *)
  let reqs =
    List.init 300 (fun i ->
        {
          Scheduler.arrival_s = 1e-9 *. float_of_int i;
          prefill_tokens = 1;
          decode_tokens = 5;
        })
  in
  let r = Scheduler.simulate config reqs in
  let by_arrival =
    List.sort
      (fun a b ->
        compare a.Scheduler.request.Scheduler.arrival_s
          b.Scheduler.request.Scheduler.arrival_s)
      r.Scheduler.completed_requests
  in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) ->
      a.Scheduler.first_token_s <= b.Scheduler.first_token_s +. 1e-12
      && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check int) "all complete" 300 (List.length by_arrival);
  Alcotest.(check bool) "first tokens in arrival order" true
    (nondecreasing by_arrival)

let test_scheduler_saturation () =
  (* A heavy closed workload must approach the pipeline bound. *)
  let reqs =
    Thelp.chat_requests ~seed:101 ~n:400 ~rate_per_s:1.0e9 ~mean_prefill:200 ~mean_decode:2
  in
  let r = Scheduler.simulate config reqs in
  let bound = Scheduler.saturated_throughput config in
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.0f vs bound %.0f" r.Scheduler.throughput_tokens_per_s bound)
    true
    (r.Scheduler.throughput_tokens_per_s > 0.8 *. bound
    && r.Scheduler.throughput_tokens_per_s <= bound *. 1.001);
  Alcotest.(check bool) "high occupancy" true (r.Scheduler.mean_slot_occupancy > 0.7)

let test_scheduler_decode_rate_single_stream () =
  (* One lonely sequence decodes at 1 token per token-latency. *)
  let reqs = [ { Scheduler.arrival_s = 0.0; prefill_tokens = 1; decode_tokens = 50 } ] in
  let r = Scheduler.simulate config reqs in
  let latency = Perf.token_latency_s config ~context:2048 in
  let expected = 51.0 *. latency in
  Alcotest.(check bool)
    (Printf.sprintf "makespan %.1f ms" (r.Scheduler.makespan_s *. 1e3))
    true
    (Thelp.within_pct 2.0 ~expected ~actual:r.Scheduler.makespan_s)

let test_scheduler_context_aware_slower () =
  (* Long sequences decode slower when latency tracks the KV length. *)
  let reqs =
    List.init 20 (fun i ->
        { Scheduler.arrival_s = 0.001 *. float_of_int i;
          prefill_tokens = 40_000; decode_tokens = 50 })
  in
  let flat = Scheduler.simulate ~context:2048 config reqs in
  let aware = Scheduler.simulate ~context_aware:true config reqs in
  Alcotest.(check bool) "aware is slower" true
    (aware.Scheduler.makespan_s > flat.Scheduler.makespan_s);
  Alcotest.(check int) "same tokens" flat.Scheduler.tokens_processed
    aware.Scheduler.tokens_processed

let test_scheduler_context_aware_matches_flat_when_short () =
  (* Below the 2K bucket both models agree exactly. *)
  let reqs =
    [ { Scheduler.arrival_s = 0.0; prefill_tokens = 100; decode_tokens = 100 } ]
  in
  let flat = Scheduler.simulate ~context:2048 config reqs in
  let aware = Scheduler.simulate ~context_aware:true config reqs in
  Alcotest.(check (float 1e-9)) "identical makespan" flat.Scheduler.makespan_s
    aware.Scheduler.makespan_s

let test_scheduler_empty_edge () =
  let r = Scheduler.simulate config [] in
  Alcotest.(check int) "nothing" 0 r.Scheduler.tokens_processed

(* 2,000 chat requests at [load] x the 829 req/s where the chat mix
   saturates a node, and their token count. *)
let chat_load ~load =
  let reqs =
    Scheduler.requests ~n:2_000
      (Arrivals.create ~seed:3 (Arrivals.chat ~rate_per_s:(load *. 829.0)))
  in
  let tokens =
    List.fold_left
      (fun a q -> a + q.Scheduler.prefill_tokens + q.Scheduler.decode_tokens)
      0 reqs
  in
  (reqs, tokens)

let test_scheduler_words_per_token () =
  (* The event loop allocates only the per-request result rows, ~17 words
     per request of ~256 tokens: events are immediate ints in private
     unboxed streams, the queues are int rings, and the clock (event
     time, occupancy, next injection) lives in unboxed loop locals, with
     the event time copied into a flat float record only for the obs
     calls.  A polymorphic heap and
     queues read 5.5-7.9 words/token.  2,000 chat requests below the knee
     and overloaded, with and without context-aware latency and two
     slot-failure steps, and with a counters-only sink, which keeps the
     load gauges out of the registry until run end (sampling each change
     into it read 9.06 words/token).  Gc.minor_words is exact for the
     calling domain.  The sink's three latency samples reach their
     sketches through a float cell: passed to [Metrics.observe] they were
     boxed, 0.088 words/token against 0.065 without a sink. *)
  List.iter
    (fun load ->
      let reqs, tokens = chat_load ~load in
      let span = 2_000.0 /. (load *. 829.0) in
      (* Warms the Perf latency memo for every bucket the runs reach. *)
      ignore (Scheduler.simulate ~context_aware:true config reqs);
      List.iter
        (fun (context_aware, slot_failures, sink) ->
          let obs = if sink then Some (Hnlpu_obs.Sink.create ~events:false ()) else None in
          (* A full major first: no collection work an earlier suite left
             pending runs inside the window. *)
          Gc.full_major ();
          let w0 = Gc.minor_words () in
          ignore (Scheduler.simulate ~context_aware ~slot_failures ?obs config reqs);
          let per_token = (Gc.minor_words () -. w0) /. float tokens in
          let bound = if sink then 0.075 else 0.1 in
          Alcotest.(check bool)
            (Printf.sprintf
               "load %.1f context_aware=%b failures=%d sink=%b: %.3f words/token <= %g"
               load context_aware (List.length slot_failures) sink per_token bound)
            true (per_token <= bound))
        [
          (false, [], false);
          (true, [], false);
          (false, [ (span /. 3.0, 72); (span *. 2.0 /. 3.0, 36) ], false);
          (true, [ (span /. 3.0, 72); (span *. 2.0 /. 3.0, 36) ], false);
          (false, [], true);
        ])
    [ 0.5; 1.2 ]

let test_scheduler_simultaneous_arrivals_in_list_order () =
  (* Requests that arrive together enter in list order, so queue wait
     does not decrease along the list.  A binary event heap admitted
     them as 0, n-1, .... *)
  let reqs =
    List.map
      (fun q -> { q with Scheduler.arrival_s = 0.0 })
      (Thelp.chat_requests ~seed:5 ~n:300 ~rate_per_s:1000.0 ~mean_prefill:40
         ~mean_decode:10)
  in
  let r = Scheduler.simulate config reqs in
  (* Each row holds its request's record itself, and two requests may
     be equal, so a row is found by physical equality. *)
  let waits =
    List.map
      (fun q ->
        (List.find (fun c -> c.Scheduler.request == q) r.Scheduler.completed_requests)
          .Scheduler.queue_wait_s)
      reqs
  in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check int) "all complete" 300 (List.length waits);
  Alcotest.(check bool) "some request waits" true (List.exists (fun w -> w > 0.0) waits);
  Alcotest.(check bool) "queue wait nondecreasing in list order" true
    (nondecreasing waits)

let test_scheduler_counters_only_registry () =
  (* What a counters-only sink's registry holds equals what sampling
     every gauge change into it gives: a sink that keeps events samples
     each change as it happens. *)
  let module M = Hnlpu_obs.Metrics in
  List.iter
    (fun (load, slot_failures) ->
      let reqs, _ = chat_load ~load in
      let registry events =
        let obs = Hnlpu_obs.Sink.create ~events () in
        ignore (Scheduler.simulate ~obs ~slot_failures config reqs);
        Hnlpu_obs.Sink.metrics obs
      in
      let counters_only = registry false and per_event = registry true in
      let names = M.names per_event in
      Alcotest.(check (list string)) "same series" names (M.names counters_only);
      Alcotest.(check bool) "load gauges present" true
        (List.mem "scheduler/queue_depth" names
        && List.mem "scheduler/busy_slots" names);
      List.iter
        (fun name ->
          let same f = f per_event name = f counters_only name in
          Alcotest.(check bool) (name ^ " identical") true
            (same M.counter && same M.gauge && same M.histogram))
        names)
    [ (0.5, []); (1.2, [ (0.5, 72); (1.5, 36) ]) ]

let prop_scheduler_merge =
  (* The event loop's stream merge against its contract: every request
     and token completes, occupancy stays a fraction, and with distinct
     arrival times the list's order is irrelevant (arrivals are read in
     time order).  Some prompts cross the 2,048 and 4,096 latency
     buckets; the failures lose at most 4 x 53 = 212 of the 216 slots. *)
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 300 in
      let* gaps_us = list_repeat n (int_range 1 3_000) in
      let* lengths =
        list_repeat n
          (pair
             (frequency [ (19, int_range 1 64); (1, int_range 2_049 5_000) ])
             (int_range 1 48))
      in
      let _, reqs =
        List.fold_left2
          (fun (t, acc) gap (prefill_tokens, decode_tokens) ->
            let t = t +. (1e-6 *. float_of_int gap) in
            (t, { Scheduler.arrival_s = t; prefill_tokens; decode_tokens } :: acc))
          (0.0, []) gaps_us lengths
      in
      let span = 1.5e-3 *. float_of_int n in
      let* failures =
        list_size (int_range 0 4) (pair (float_bound_inclusive span) (int_range 0 53))
      in
      let* context_aware = bool in
      let* shuffled = shuffle_l reqs in
      return (List.rev reqs, shuffled, failures, context_aware))
  in
  let print (reqs, _, failures, context_aware) =
    Printf.sprintf "n=%d context_aware=%b failures=[%s] longest=%d" (List.length reqs)
      context_aware
      (String.concat ";" (List.map (fun (t, k) -> Printf.sprintf "(%g,%d)" t k) failures))
      (List.fold_left (fun m q -> max m q.Scheduler.prefill_tokens) 0 reqs)
  in
  QCheck.Test.make ~name:"stream merge contract" ~count:200
    (QCheck.make ~print gen)
    (fun (reqs, shuffled, slot_failures, context_aware) ->
      let run reqs = Scheduler.simulate ~context_aware ~slot_failures config reqs in
      let r = run reqs and s = run shuffled in
      let tokens =
        List.fold_left
          (fun a q -> a + q.Scheduler.prefill_tokens + q.Scheduler.decode_tokens)
          0 reqs
      in
      let rows (r : Scheduler.result) =
        List.sort compare
          (List.map
             (fun c ->
               (c.Scheduler.first_token_s, c.Scheduler.finish_s, c.Scheduler.queue_wait_s))
             r.Scheduler.completed_requests)
      in
      let bits x = Int64.bits_of_float x in
      List.length r.Scheduler.completed_requests = List.length reqs
      && r.Scheduler.tokens_processed = tokens
      && r.Scheduler.mean_slot_occupancy <= 1.0
      && bits r.Scheduler.makespan_s = bits s.Scheduler.makespan_s
      && bits r.Scheduler.mean_slot_occupancy = bits s.Scheduler.mean_slot_occupancy
      && rows r = rows s)

let prop_scheduler_conserves =
  QCheck.Test.make ~name:"scheduler conserves tokens" ~count:15
    QCheck.(triple (int_range 1 30) (int_range 1 60) (int_range 0 100000))
    (fun (n, mean, seed) ->
      let reqs =
        Thelp.chat_requests ~seed ~n ~rate_per_s:10_000.0 ~mean_prefill:mean ~mean_decode:5
      in
      let r = Scheduler.simulate config reqs in
      let expected =
        List.fold_left
          (fun a q -> a + q.Scheduler.prefill_tokens + q.Scheduler.decode_tokens)
          0 reqs
      in
      r.Scheduler.tokens_processed = expected
      && List.length r.Scheduler.completed_requests = n)

let prop_scheduler_bookkeeping =
  (* Request ids index the scheduler's per-sequence state: unsorted input,
     pile-ups on one arrival instant and slot failures must still return
     every request once, with consistent timestamps. *)
  let gen =
    QCheck.Gen.(
      let* spread = int_range 0 3 in
      let request =
        map3
          (fun slot prefill_tokens decode_tokens ->
            { Scheduler.arrival_s = 1e-3 *. float_of_int slot; prefill_tokens; decode_tokens })
          (int_range 0 spread) (int_range 1 50) (int_range 1 20)
      in
      pair
        (list_size (int_range 1 40) request)
        (list_size (int_range 0 5) (pair (float_bound_inclusive 0.01) (int_range 0 40))))
  in
  let print (reqs, failures) =
    Printf.sprintf "requests=[%s] failures=[%s]"
      (String.concat ";"
         (List.map
            (fun q ->
              Printf.sprintf "(%g,%d,%d)" q.Scheduler.arrival_s q.Scheduler.prefill_tokens
                q.Scheduler.decode_tokens)
            reqs))
      (String.concat ";" (List.map (fun (t, k) -> Printf.sprintf "(%g,%d)" t k) failures))
  in
  QCheck.Test.make ~name:"scheduler id bookkeeping and edge orders" ~count:100
    (QCheck.make ~print gen)
    (fun (reqs, slot_failures) ->
      let r = Scheduler.simulate ~slot_failures config reqs in
      let done_ = List.map (fun c -> c.Scheduler.request) r.Scheduler.completed_requests in
      List.sort compare done_ = List.sort compare reqs
      && List.for_all
           (fun c ->
             c.Scheduler.request.Scheduler.arrival_s <= c.Scheduler.first_token_s
             && c.Scheduler.first_token_s <= c.Scheduler.finish_s
             && c.Scheduler.queue_wait_s >= 0.0)
           r.Scheduler.completed_requests
      && r.Scheduler.mean_slot_occupancy >= 0.0
      && r.Scheduler.mean_slot_occupancy <= 1.0
      && r.Scheduler.throughput_tokens_per_s
         <= Scheduler.saturated_throughput config *. 1.001)

(* --- SLO ------------------------------------------------------------------------- *)

let test_slo_low_rate_meets () =
  let e = Slo.evaluate config Slo.interactive ~rate_per_s:5.0 in
  Alcotest.(check bool)
    (Printf.sprintf "TTFT p95 %.3fs" e.Slo.ttft_p95)
    true e.Slo.meets

let test_slo_insane_rate_fails () =
  let e =
    Slo.evaluate config
      { Slo.ttft_p95_s = 0.005; e2e_p95_s = 0.05 }
      ~rate_per_s:5000.0
  in
  Alcotest.(check bool) "unmeetable objectives fail" false e.Slo.meets

let test_slo_max_rate_bracketing () =
  let obj = Slo.interactive in
  let r = Slo.max_rate config obj in
  Alcotest.(check bool) (Printf.sprintf "max rate %.0f/s positive" r) true (r > 10.0);
  (* The found rate must actually meet; 4x it must not (or be past the
     throughput ceiling anyway). *)
  let at = Slo.evaluate config obj ~rate_per_s:r in
  Alcotest.(check bool) "feasible at the answer" true at.Slo.meets

(* --- Prefill & stage decomposition ----------------------------------------------- *)

let test_prefill_chunking_helps () =
  let t1 = Perf.prefill_throughput_tokens_per_s config ~chunk:1 ~context:2048 in
  let t8 = Perf.prefill_throughput_tokens_per_s config ~chunk:8 ~context:2048 in
  let t64 = Perf.prefill_throughput_tokens_per_s config ~chunk:64 ~context:2048 in
  Alcotest.(check bool) "chunk 1 = decode rate" true
    (Thelp.within_pct 1.0 ~expected:(Perf.throughput_tokens_per_s config ~context:2048)
       ~actual:t1);
  Alcotest.(check bool)
    (Printf.sprintf "chunk 8 (%.0f) > 2.5x decode" t8)
    true (t8 > 2.5 *. t1);
  Alcotest.(check bool) "diminishing returns" true
    (t64 > t8 && t64 < 16.0 *. t1)

let table = Perf.design config ~context:2048

let test_stage_times_sum_to_layer () =
  (* The stage fold and the decode fold cover the same per-layer terms:
     the stages leave out only sampling and the HBM stall. *)
  let stages = Perf.stage_times table in
  Alcotest.(check int) "six stages" 6 (List.length stages);
  let sum = List.fold_left (fun a (_, t) -> a +. t) 0.0 stages in
  let b = Perf.decode table in
  let expected =
    (Perf.total_s b -. table.Perf.sampling_s -. b.Perf.stall_s)
    /. float_of_int config.Hnlpu_model.Config.num_layers
  in
  Alcotest.(check bool)
    (Printf.sprintf "sum %.3fus = layer %.3fus" (sum *. 1e6) (expected *. 1e6))
    true
    (Thelp.close ~rel:1e-9 expected sum)

let test_stage_labels_agree () =
  (* Regression: the stage times once carried their own label copies, which
     had drifted from the stage list ("S1 HN..." vs "S1: HN...").  They
     are keyed by the table's stages, verbatim. *)
  Alcotest.(check (list string)) "labels are stage_names"
    (List.map (fun s -> s.Perf.label) table.Perf.stages)
    (List.map fst (Perf.stage_times table))

let test_stage_times_attention_grows () =
  let at ctx =
    List.assoc "S2: attention QK + stats exchange"
      (Perf.stage_times (Perf.design config ~context:ctx))
  in
  (* S2 carries a fixed stats-exchange cost, so the growth is bounded by
     the attention half; 5x between 2K and 512K is the conservative check. *)
  Alcotest.(check bool) "S2 grows with context" true (at 524288 > 5.0 *. at 2048)

(* --- Ablations --------------------------------------------------------------------- *)

let test_interconnect_ordering () =
  let rows = Ablation.interconnect_sweep config in
  Alcotest.(check int) "four options" 4 (List.length rows);
  let tp (r : Ablation.interconnect_row) = r.Ablation.throughput_tokens_per_s in
  (match rows with
  | [ pcie; cxl; nvlink; wafer ] ->
    Alcotest.(check bool) "faster links, faster system" true
      (tp pcie < tp cxl && tp cxl < tp nvlink && tp nvlink < tp wafer);
    Alcotest.(check bool) "comm share shrinks" true
      (wafer.Ablation.comm_fraction < pcie.Ablation.comm_fraction);
    Alcotest.(check bool) "comm still dominates even at wafer-scale (fixed latency)"
      true
      (wafer.Ablation.comm_fraction > 0.3)
  | _ -> Alcotest.fail "unexpected row count")

let test_programmability_tradeoff () =
  match Ablation.programmability config with
  | [ metal; field ] ->
    Alcotest.(check bool) "field needs ~10x silicon" true
      (field.Ablation.silicon_mm2 > 8.0 *. metal.Ablation.silicon_mm2);
    Alcotest.(check bool) "field re-spins are free" true (field.Ablation.respin_usd = 0.0);
    Alcotest.(check bool) "field masks cheaper (fully homogeneous)" true
      (field.Ablation.mask_nre_usd < metal.Ablation.mask_nre_usd);
    Alcotest.(check bool) "field throughput lower" true
      (field.Ablation.relative_throughput < 0.7)
  | _ -> Alcotest.fail "expected two variants"

let test_precision_tradeoff () =
  let rows = Ablation.precision_sweep config in
  match rows with
  | [ b4; b8; b16 ] ->
    Alcotest.(check bool) "fewer bits, faster projection" true
      (b4.Ablation.projection_us_per_layer < b8.Ablation.projection_us_per_layer
      && b8.Ablation.projection_us_per_layer < b16.Ablation.projection_us_per_layer);
    Alcotest.(check bool) "throughput follows" true
      (b4.Ablation.throughput_tokens_per_s > b16.Ablation.throughput_tokens_per_s)
  | _ -> Alcotest.fail "expected three widths"

let test_design_rows_are_perf () =
  (* The design-point rows price the same table as Perf, sampling and
     stall included, so they agree to the bit. *)
  let perf = Perf.throughput_tokens_per_s config ~context:2048 in
  let cxl =
    List.find
      (fun r -> r.Ablation.link_name = "CXL 3.0 x16 (design point)")
      (Ablation.interconnect_sweep config)
  in
  let fp16 =
    List.find (fun r -> r.Ablation.act_bits = 16) (Ablation.precision_sweep config)
  in
  Alcotest.(check (float 0.0)) "CXL 3.0 row" perf cxl.Ablation.throughput_tokens_per_s;
  Alcotest.(check (float 0.0)) "16-bit row" perf
    fp16.Ablation.throughput_tokens_per_s

let test_slack_tradeoff () =
  let rows = Ablation.slack_sweep (Rng.create 8) in
  let get s = List.find (fun r -> r.Ablation.slack = s) rows in
  Alcotest.(check bool) "no slack always fails" true ((get 1.0).Ablation.failure_rate > 0.9);
  Alcotest.(check bool) "generous slack never fails" true
    ((get 2.0).Ablation.failure_rate = 0.0);
  Alcotest.(check bool) "monotone-ish" true
    ((get 1.1).Ablation.failure_rate >= (get 1.5).Ablation.failure_rate)

(* --- Trace simulator ------------------------------------------------------------ *)

let trace = Trace.run ~tokens:1000 config

let test_trace_latency_matches_perf () =
  Alcotest.(check bool)
    (Printf.sprintf "sim %.1fus vs model %.1fus"
       (trace.Trace.measured_latency_s *. 1e6)
       (trace.Trace.predicted_latency_s *. 1e6))
    true
    (Thelp.within_pct 2.0 ~expected:trace.Trace.predicted_latency_s
       ~actual:trace.Trace.measured_latency_s)

let test_trace_throughput_brackets_perf () =
  (* Discrete pipelining rounds stage capacities up, so the simulated rate
     sits at or slightly above the closed-form bound. *)
  let m = trace.Trace.measured_throughput_tokens_per_s in
  let p = trace.Trace.predicted_throughput_tokens_per_s in
  Alcotest.(check bool) (Printf.sprintf "sim %.0f vs model %.0f" m p) true
    (m >= 0.98 *. p && m <= 1.25 *. p)

let test_trace_slot_census () =
  (* ~216 slots (ceil rounding inflates modestly). *)
  Alcotest.(check bool)
    (Printf.sprintf "%d slots" trace.Trace.total_slots)
    true
    (trace.Trace.total_slots >= 216 && trace.Trace.total_slots <= 400)

let test_trace_bottleneck_is_moe_allreduce () =
  (* S6 carries the all-chip all-reduce: it must be the widest stage. *)
  let b = Trace.busiest_stage trace in
  Alcotest.(check bool) ("bottleneck " ^ b.Trace.stage_label) true
    (String.length b.Trace.stage_label >= 2
    && String.sub b.Trace.stage_label (String.length b.Trace.stage_label - 2) 2 = "S6");
  Alcotest.(check bool) "high utilization" true (b.Trace.utilization > 0.8)

let test_trace_stage_count () =
  Alcotest.(check int) "216 pipeline stages" 216 (List.length trace.Trace.stage_stats)

let test_trace_services_are_table () =
  (* Every layer replays the table's six stage times, in order. *)
  let per_layer = Array.of_list (List.map snd (Perf.stage_times table)) in
  List.iteri
    (fun i st ->
      Alcotest.(check (float 0.0)) st.Trace.stage_label
        per_layer.(i mod Array.length per_layer)
        st.Trace.service_s)
    trace.Trace.stage_stats

(* --- Interconnect traffic ---------------------------------------------------------- *)

let traffic = Traffic.analyze config

let test_traffic_fabric_loaded_not_saturated () =
  let u = traffic.Traffic.mean_link_utilization in
  Alcotest.(check bool) (Printf.sprintf "utilization %.3f" u) true (u > 0.4 && u < 0.95)

let test_traffic_consistent_with_calibration () =
  (* The M/M/1 queueing factor implied by measured byte traffic must agree
     with the contention factor calibrated against Figure 14.  A
     consistency check only: the fabric load comes from Perf's
     throughput, which already contains that factor. *)
  Alcotest.(check bool)
    (Printf.sprintf "M/M/1 factor %.2f vs calibrated %.2f"
       traffic.Traffic.queueing_factor_mm1 Perf.link_contention_factor)
    true traffic.Traffic.consistent_with_calibration

let test_traffic_moe_dominates_bytes () =
  (* The hidden-width all-chip all-reduce moves the most data. *)
  let moe =
    List.find
      (fun e -> e.Traffic.collective = "MoE all-chip all-reduce")
      traffic.Traffic.entries
  in
  List.iter
    (fun e ->
      Alcotest.(check bool) ("moe >= " ^ e.Traffic.collective) true
        (moe.Traffic.link_bytes >= e.Traffic.link_bytes))
    traffic.Traffic.entries

(* --- Scheduler fault injection --------------------------------------------------------- *)

let heavy_workload seed =
  Thelp.chat_requests ~seed ~n:300 ~rate_per_s:1.0e9 ~mean_prefill:100 ~mean_decode:2

let test_faults_conserve_tokens () =
  let reqs = heavy_workload 1 in
  let r = Scheduler.simulate ~slot_failures:[ (0.01, 50); (0.05, 50) ] config reqs in
  let expected =
    List.fold_left
      (fun a q -> a + q.Scheduler.prefill_tokens + q.Scheduler.decode_tokens)
      0 reqs
  in
  Alcotest.(check int) "no token lost" expected r.Scheduler.tokens_processed;
  Alcotest.(check int) "all requests complete" 300
    (List.length r.Scheduler.completed_requests)

let test_faults_degrade_throughput () =
  let reqs = heavy_workload 2 in
  let healthy = Scheduler.simulate config reqs in
  let degraded = Scheduler.simulate ~slot_failures:[ (0.0, 108) ] config reqs in
  let ratio =
    degraded.Scheduler.throughput_tokens_per_s
    /. healthy.Scheduler.throughput_tokens_per_s
  in
  (* Half the slots -> roughly half the throughput. *)
  Alcotest.(check bool) (Printf.sprintf "ratio %.2f ~ 0.5" ratio) true
    (ratio > 0.4 && ratio < 0.65)

let test_faults_validation () =
  Alcotest.(check bool) "negative time rejected" true
    (try
       ignore (Scheduler.simulate ~slot_failures:[ (-1.0, 1) ] config []);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "NaN time rejected" true
    (try
       ignore (Scheduler.simulate ~slot_failures:[ (Float.nan, 1) ] config []);
       false
     with Invalid_argument _ -> true);
  let arriving arrival_s =
    [ { Scheduler.arrival_s; prefill_tokens = 4; decode_tokens = 4 } ]
  in
  Alcotest.(check bool) "negative arrival rejected" true
    (try
       ignore (Scheduler.simulate config (arriving (-1.0)));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "NaN arrival rejected" true
    (try
       ignore (Scheduler.simulate config (arriving Float.nan));
       false
     with Invalid_argument _ -> true)

(* An infinite arrival used to pass the [>= 0] guard and report an
   infinite makespan and a NaN occupancy; the largest finite one runs. *)
let test_scheduler_non_finite_arrivals () =
  let with_second arrival_s =
    [
      { Scheduler.arrival_s = 0.0; prefill_tokens = 4; decode_tokens = 4 };
      { Scheduler.arrival_s; prefill_tokens = 4; decode_tokens = 4 };
    ]
  in
  List.iter
    (fun (label, t) ->
      Alcotest.(check bool) (label ^ " arrival rejected") true
        (Thelp.raises (fun () -> Scheduler.simulate config (with_second t))))
    [ ("+inf", infinity); ("NaN", Float.nan) ];
  let r = Scheduler.simulate config (with_second max_float) in
  Alcotest.(check int) "max_float: both complete" 2
    (List.length r.Scheduler.completed_requests);
  Alcotest.(check bool) "max_float: finite makespan and occupancy" true
    (Float.is_finite r.Scheduler.makespan_s
    && Float.is_finite r.Scheduler.mean_slot_occupancy)

(* --- Config/scheduler misc ---------------------------------------------------------- *)

let test_scheduler_requests_validation () =
  let open Hnlpu_system in
  Alcotest.(check bool) "n=0" true
    (Thelp.raises (fun () ->
         Scheduler.requests ~n:0 (Arrivals.create ~seed:0 (Arrivals.chat ~rate_per_s:1.0))))

let test_perf_zero_context () =
  (* Decoding the very first token: no cached positions, attention free. *)
  let b =
    Hnlpu_system.Perf.token_breakdown Hnlpu_model.Config.gpt_oss_120b ~context:0
  in
  Alcotest.(check (float 0.0)) "no attention" 0.0 b.Hnlpu_system.Perf.attention_s;
  Alcotest.(check bool) "comm still paid" true (b.Hnlpu_system.Perf.comm_s > 0.0)

let suites =
  [
    ( "mapping",
      [
        Alcotest.test_case "gpt-oss slices" `Quick test_mapping_gpt_oss_slices;
        Alcotest.test_case "experts" `Quick test_mapping_experts;
        Alcotest.test_case "balance" `Quick test_mapping_balance;
        Alcotest.test_case "coverage" `Quick test_mapping_covers_everything;
        Alcotest.test_case "rejects unmappable" `Quick test_mapping_rejects_unmappable;
      ] );
    ( "dataflow",
      [
        Alcotest.test_case "matches reference" `Quick test_dataflow_matches_reference;
        Alcotest.test_case "matches reference, 48 tokens" `Quick
          test_dataflow_matches_reference_long;
        Alcotest.test_case "kv striping" `Quick test_dataflow_kv_striping;
        Alcotest.test_case "collective pattern" `Quick test_dataflow_collective_pattern;
      ] );
    Thelp.qsuite "dataflow properties" [ prop_dataflow_equivalence ];
    ( "perf",
      [
        Alcotest.test_case "throughput 249,960" `Quick (Thelp.paper "Table 2" "HNLPU throughput");
        Alcotest.test_case "216 slots" `Quick (Thelp.paper "Side claims" "§5.2 batch ceiling (pipeline slots)");
        Alcotest.test_case "latency 864us" `Quick test_token_latency_magnitude;
        Alcotest.test_case "figure 14 within 3pp" `Quick (Thelp.paper "Figure 14" "2K CXL comm");
        Alcotest.test_case "figure 14 trends" `Quick test_figure14_trends;
        Alcotest.test_case "latency monotone" `Quick test_latency_monotone_in_context;
      ] );
    ( "scheduler",
      [
        Alcotest.test_case "conservation" `Quick test_scheduler_conservation;
        Alcotest.test_case "ordering invariants" `Quick test_scheduler_ordering_invariants;
        Alcotest.test_case "fifo order" `Quick test_scheduler_fifo_order;
        Alcotest.test_case "saturation" `Quick test_scheduler_saturation;
        Alcotest.test_case "single stream" `Quick test_scheduler_decode_rate_single_stream;
        Alcotest.test_case "context-aware slower" `Quick test_scheduler_context_aware_slower;
        Alcotest.test_case "context-aware short = flat" `Quick test_scheduler_context_aware_matches_flat_when_short;
        Alcotest.test_case "empty" `Quick test_scheduler_empty_edge;
        Alcotest.test_case "non-finite arrivals" `Quick test_scheduler_non_finite_arrivals;
        Alcotest.test_case "words per token" `Quick test_scheduler_words_per_token;
        Alcotest.test_case "t=0 arrivals in list order" `Quick
          test_scheduler_simultaneous_arrivals_in_list_order;
        Alcotest.test_case "counters-only sink registry" `Quick
          test_scheduler_counters_only_registry;
      ] );
    Thelp.qsuite "scheduler properties"
      [ prop_scheduler_conserves; prop_scheduler_bookkeeping; prop_scheduler_merge ];
    ( "slo",
      [
        Alcotest.test_case "low rate meets" `Quick test_slo_low_rate_meets;
        Alcotest.test_case "insane rate fails" `Quick test_slo_insane_rate_fails;
        Alcotest.test_case "max rate" `Slow test_slo_max_rate_bracketing;
      ] );
    ( "prefill-stages",
      [
        Alcotest.test_case "chunking helps" `Quick test_prefill_chunking_helps;
        Alcotest.test_case "stages sum to layer" `Quick test_stage_times_sum_to_layer;
        Alcotest.test_case "stage labels agree" `Quick test_stage_labels_agree;
        Alcotest.test_case "attention stage grows" `Quick test_stage_times_attention_grows;
      ] );
    ( "ablations",
      [
        Alcotest.test_case "interconnect" `Quick test_interconnect_ordering;
        Alcotest.test_case "programmability" `Quick test_programmability_tradeoff;
        Alcotest.test_case "precision" `Quick test_precision_tradeoff;
        Alcotest.test_case "slack" `Quick test_slack_tradeoff;
        Alcotest.test_case "design rows are Perf" `Quick test_design_rows_are_perf;
      ] );
    ( "trace",
      [
        Alcotest.test_case "latency = model" `Quick test_trace_latency_matches_perf;
        Alcotest.test_case "throughput brackets model" `Quick test_trace_throughput_brackets_perf;
        Alcotest.test_case "slot census" `Quick test_trace_slot_census;
        Alcotest.test_case "bottleneck S6" `Quick test_trace_bottleneck_is_moe_allreduce;
        Alcotest.test_case "stage count" `Quick test_trace_stage_count;
        Alcotest.test_case "services are the table's" `Quick test_trace_services_are_table;
      ] );
    ( "traffic",
      [
        Alcotest.test_case "loaded not saturated" `Quick test_traffic_fabric_loaded_not_saturated;
        Alcotest.test_case "consistent with calibration" `Quick
          test_traffic_consistent_with_calibration;
        Alcotest.test_case "MoE dominates bytes" `Quick test_traffic_moe_dominates_bytes;
      ] );
    ( "fault-injection",
      [
        Alcotest.test_case "conservation under faults" `Quick test_faults_conserve_tokens;
        Alcotest.test_case "throughput degrades" `Quick test_faults_degrade_throughput;
        Alcotest.test_case "validation" `Quick test_faults_validation;
      ] );
    ( "misc",
      [
        Alcotest.test_case "workload validation" `Quick test_scheduler_requests_validation;
        Alcotest.test_case "zero context" `Quick test_perf_zero_context;
      ] );
  ]
