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

let test_throughput_paper_point () =
  (* Table 2: 249,960 tokens/s at 2K context. *)
  let tp = Perf.throughput_tokens_per_s config ~context:2048 in
  Alcotest.(check bool) (Printf.sprintf "throughput %.0f" tp) true
    (Thelp.within_pct 1.0 ~expected:249_960.0 ~actual:tp)

let test_pipeline_slots () =
  Alcotest.(check int) "216" 216 (Perf.pipeline_slots config)

let test_token_latency_magnitude () =
  (* 216 slots / 249,960 tok/s = 864 us. *)
  let l = Perf.token_latency_s config ~context:2048 in
  Alcotest.(check bool) (Printf.sprintf "latency %.1f us" (l *. 1e6)) true
    (Thelp.within_pct 1.0 ~expected:864.1e-6 ~actual:l)

let paper_figure14 =
  (* context, comm%, projection%, attention%, stall% (non-linear is the
     remainder). *)
  [
    (2048, 82.9, 13.8, 0.55, 0.0);
    (8192, 81.5, 13.6, 2.2, 0.0);
    (65536, 70.8, 11.8, 15.1, 0.0);
    (131072, 61.5, 10.2, 26.2, 0.0);
    (262144, 48.7, 8.1, 41.6, 0.0);
    (524288, 30.7, 5.1, 52.4, 10.7);
  ]

let test_figure14_within_tolerance () =
  (* Each share within 3 percentage points of the paper's column. *)
  List.iter
    (fun (context, comm, proj, attn, stall) ->
      let f = Perf.fractions (Perf.token_breakdown config ~context) in
      let check name expected actual =
        Alcotest.(check bool)
          (Printf.sprintf "%dK %s: %.1f%% vs paper %.1f%%" (context / 1024) name
             (actual *. 100.0) expected)
          true
          (Float.abs ((actual *. 100.0) -. expected) <= 3.0)
      in
      check "comm" comm f.Perf.comm_s;
      check "projection" proj f.Perf.projection_s;
      check "attention" attn f.Perf.attention_s;
      check "stall" stall f.Perf.stall_s)
    paper_figure14

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
     unboxed streams, the queues are int rings, and event times reach the
     handlers through the all-float clock record.  A polymorphic heap and
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
            (same M.counter && same M.gauge && same M.gauge_stamp
           && same M.histogram))
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

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "hnlpu_system"
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
      qsuite "dataflow properties" [ prop_dataflow_equivalence ];
      ( "perf",
        [
          Alcotest.test_case "throughput 249,960" `Quick test_throughput_paper_point;
          Alcotest.test_case "216 slots" `Quick test_pipeline_slots;
          Alcotest.test_case "latency 864us" `Quick test_token_latency_magnitude;
          Alcotest.test_case "figure 14 within 3pp" `Quick test_figure14_within_tolerance;
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
          Alcotest.test_case "words per token" `Quick test_scheduler_words_per_token;
          Alcotest.test_case "t=0 arrivals in list order" `Quick
            test_scheduler_simultaneous_arrivals_in_list_order;
          Alcotest.test_case "counters-only sink registry" `Quick
            test_scheduler_counters_only_registry;
        ] );
      qsuite "scheduler properties"
        [ prop_scheduler_conserves; prop_scheduler_bookkeeping; prop_scheduler_merge ];
    ]
