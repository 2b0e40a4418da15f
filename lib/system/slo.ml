type objectives = { ttft_p95_s : float; e2e_p95_s : float }

let interactive = { ttft_p95_s = 0.2; e2e_p95_s = 30.0 }

let check_objectives obj =
  if not (obj.ttft_p95_s > 0.0 && obj.e2e_p95_s > 0.0) then
    invalid_arg "Slo: objectives must be positive"

type evaluation = {
  rate_per_s : float;
  throughput_tokens_per_s : float;
  ttft_p95 : float;
  e2e_p95 : float;
  occupancy : float;
  meets : bool;
}

let requests = 150

let evaluate ?(mean_prefill = 256) ?(mean_decode = 128) config obj ~rate_per_s =
  check_objectives obj;
  if not (rate_per_s > 0.0) then invalid_arg "Slo.evaluate: rate must be positive";
  let spec =
    {
      (Arrivals.chat ~rate_per_s) with
      prefill = Geometric { mean = mean_prefill };
      decode = Geometric { mean = mean_decode };
    }
  in
  let reqs = Scheduler.requests ~n:requests (Arrivals.create ~seed:1234 spec) in
  let r = Scheduler.simulate config reqs in
  (* Two streaming sketches instead of a scratch sample array: constant
     memory however many requests complete, quantiles within
     [Sketch.relative_error] of the exact percentile (property-tested in
     test_obs).  The recursive walk feeds both per cons cell, allocating
     nothing per request. *)
  let ttft_sk = Hnlpu_obs.Sketch.create () in
  let e2e_sk = Hnlpu_obs.Sketch.create () in
  let rec feed = function
    | [] -> ()
    | c :: rest ->
      let arrival = c.Scheduler.request.Scheduler.arrival_s in
      Hnlpu_obs.Sketch.observe ttft_sk (c.Scheduler.first_token_s -. arrival);
      Hnlpu_obs.Sketch.observe e2e_sk (c.Scheduler.finish_s -. arrival);
      feed rest
  in
  feed r.Scheduler.completed_requests;
  (* Empty sketches yield [nan], matching the old empty-array path. *)
  let ttft_p95 = Hnlpu_obs.Sketch.quantile ttft_sk 0.95 in
  let e2e_p95 = Hnlpu_obs.Sketch.quantile e2e_sk 0.95 in
  {
    rate_per_s;
    throughput_tokens_per_s = r.Scheduler.throughput_tokens_per_s;
    ttft_p95;
    e2e_p95;
    occupancy = r.Scheduler.mean_slot_occupancy;
    meets = ttft_p95 <= obj.ttft_p95_s && e2e_p95 <= obj.e2e_p95_s;
  }

let sweep ?mean_prefill ?mean_decode config obj ~rates =
  check_objectives obj;
  List.iter
    (fun r -> if not (r > 0.0) then invalid_arg "Slo.sweep: rates must be positive")
    rates;
  Hnlpu_par.Par.parallel_map
    (fun rate_per_s -> evaluate ?mean_prefill ?mean_decode config obj ~rate_per_s)
    rates

let max_rate ?(mean_prefill = 256) ?(mean_decode = 128) config obj =
  let meets rate =
    (evaluate ~mean_prefill ~mean_decode config obj ~rate_per_s:rate).meets
  in
  (* Upper bound: the token-throughput ceiling over the mean request size. *)
  let ceiling =
    Perf.throughput_tokens_per_s config ~context:2048
    /. float_of_int (mean_prefill + mean_decode)
  in
  if not (meets 1.0) then 0.0
  else begin
    let lo = ref 1.0 and hi = ref (2.0 *. ceiling) in
    (* Ensure the top is infeasible; if even 2x ceiling passes (tiny
       workloads), report it. *)
    if meets !hi then !hi
    else begin
      while (!hi -. !lo) /. !hi > 0.05 do
        let mid = sqrt (!lo *. !hi) in
        if meets mid then lo := mid else hi := mid
      done;
      !lo
    end
  end
