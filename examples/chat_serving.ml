(* Chat-serving simulation: the workload the paper's introduction motivates —
   a cloud endpoint serving many concurrent conversations on one HNLPU node.

   Poisson arrivals with chat-shaped token counts flow through the 216-slot
   continuous-batching pipeline (paper §5.2).  We sweep the offered load and
   report throughput, slot occupancy and latency percentiles, showing the
   saturation point at the pipeline bound of ~250K tokens/s.

   Run with: dune exec examples/chat_serving.exe *)

open Hnlpu

let config = Config.gpt_oss_120b

let mean_prefill = 512 (* prompt + history *)
let mean_decode = 256 (* assistant reply *)

let run_load rate =
  let spec =
    {
      (Arrivals.chat ~rate_per_s:rate) with
      Arrivals.prefill = Arrivals.Geometric { mean = mean_prefill };
      decode = Arrivals.Geometric { mean = mean_decode };
    }
  in
  let reqs = Scheduler.requests ~n:300 (Arrivals.create ~seed:4242 spec) in
  let r = Scheduler.simulate config reqs in
  let ttft =
    Array.of_list
      (List.map
         (fun c -> c.Scheduler.first_token_s -. c.Scheduler.request.Scheduler.arrival_s)
         r.Scheduler.completed_requests)
  in
  let finish =
    Array.of_list
      (List.map
         (fun c -> c.Scheduler.finish_s -. c.Scheduler.request.Scheduler.arrival_s)
         r.Scheduler.completed_requests)
  in
  (r, ttft, finish)

let () =
  let bound = Scheduler.saturated_throughput config in
  Printf.printf
    "HNLPU chat serving: %d pipeline slots, pipeline bound %s tokens/s\n"
    (Perf.pipeline_slots config)
    (Units.group_thousands (int_of_float bound));
  Printf.printf "Workload: Poisson arrivals, ~%d prompt + ~%d reply tokens\n\n"
    mean_prefill mean_decode;
  let t =
    Table.create
      ~headers:
        [ "Offered (req/s)"; "Tokens/s"; "Occupancy"; "TTFT p50"; "TTFT p95";
          "E2E p95" ]
  in
  List.iter
    (fun rate ->
      let r, ttft, finish = run_load rate in
      Table.add_row t
        [
          Printf.sprintf "%.0f" rate;
          Units.group_thousands (int_of_float r.Scheduler.throughput_tokens_per_s);
          Units.percent r.Scheduler.mean_slot_occupancy;
          Units.seconds (Stats.percentile ttft 0.5);
          Units.seconds (Stats.percentile ttft 0.95);
          Units.seconds (Stats.percentile finish 0.95);
        ])
    [ 10.0; 50.0; 100.0; 200.0; 400.0; 1000.0 ];
  Table.print t;
  Printf.printf
    "\nAt low load the node is mostly idle (the paper's point: one node\n\
     oversaturates most deployments); past ~%d req/s of this mix the pipeline\n\
     saturates and latency grows with queueing.\n"
    (int_of_float (bound /. float_of_int (mean_prefill + mean_decode)))
