open Hnlpu_model

type stage_stat = {
  stage_label : string;
  service_s : float;
  slots : int;
  utilization : float;
}

type t = {
  tokens : int;
  sim_time_s : float;
  measured_throughput_tokens_per_s : float;
  measured_latency_s : float;
  predicted_throughput_tokens_per_s : float;
  predicted_latency_s : float;
  total_slots : int;
  stage_stats : stage_stat list;
}

let run ?(context = 2048) ?(tokens = 2000) ?obs
    ?(obs_tokens = 32) (c : Config.t) =
  if tokens < 10 then invalid_arg "Trace.run: need at least 10 tokens";
  if obs_tokens < 0 then invalid_arg "Trace.run: obs_tokens must be >= 0";
  let per_layer = Perf.stage_times_s c ~context in
  let layers = c.Config.num_layers in
  (* The full pipeline: layer-major, stage-minor. *)
  let services =
    Array.concat
      (List.init layers (fun l ->
           Array.of_list
             (List.mapi
                (fun s (_, d) -> (Printf.sprintf "L%02d/S%d" l (s + 1), d))
                per_layer)))
  in
  let n_stages = Array.length services in
  let ii_target =
    Perf.token_latency_s c ~context /. float_of_int (Perf.pipeline_slots c)
  in
  let slots = Array.map (fun (_, d) -> max 1 (int_of_float (ceil (d /. ii_target)))) services in
  let ii = Array.mapi (fun i (_, d) -> d /. float_of_int slots.(i)) services in
  (* enter.(s) = entry time of the previous token into stage s;
     exit_prev.(s) = exit time of the current token from stage s-1. *)
  let last_entry = Array.make n_stages neg_infinity in
  let completion = Array.make tokens 0.0 in
  let entry0 = Array.make tokens 0.0 in
  let busy = Array.make n_stages 0.0 in
  (* Inject at the pipeline's natural initiation interval (the widest
     stage's), so queueing does not pile up at the entry and the measured
     latency reflects the flow, not an unbounded backlog. *)
  let inject_ii = Array.fold_left Float.max 0.0 ii in
  (* Span recording covers the first [obs_tokens] tokens: enough to see the
     pipeline fill and reach steady state without drowning the ring buffer
     in tokens x stages spans.  One track per (stage, slot) keeps spans on
     a track disjoint — token t+slots enters at least d seconds after
     token t. *)
  let emit_span t s enter d =
    match obs with
    | None -> ()
    | Some o when t >= obs_tokens -> ignore o
    | Some o ->
      let label, _ = services.(s) in
      Hnlpu_obs.Sink.span o ~cat:"stage"
        ~args:[ ("token", Hnlpu_obs.Event.I t); ("stage", Hnlpu_obs.Event.I s) ]
        ~track:
          (Hnlpu_obs.Event.track ~process:"pipeline"
             ~thread:(Printf.sprintf "%s#%d" label (t mod slots.(s))))
        ~name:(Printf.sprintf "tok%03d" t)
        ~start_s:enter ~dur_s:d
  in
  for t = 0 to tokens - 1 do
    let clock = ref (float_of_int t *. inject_ii) in
    for s = 0 to n_stages - 1 do
      let _, d = services.(s) in
      let enter = Float.max !clock (last_entry.(s) +. ii.(s)) in
      last_entry.(s) <- enter;
      busy.(s) <- busy.(s) +. ii.(s);
      if s = 0 then entry0.(t) <- enter;
      emit_span t s enter d;
      clock := enter +. d
    done;
    completion.(t) <- !clock
  done;
  (* Steady-state window: drop the warm-up half. *)
  let lo = tokens / 2 in
  let window = float_of_int (tokens - 1 - lo) in
  let sim_time = completion.(tokens - 1) in
  let measured_tp = window /. (completion.(tokens - 1) -. completion.(lo)) in
  let latency_sum = ref 0.0 in
  for t = lo to tokens - 1 do
    latency_sum := !latency_sum +. (completion.(t) -. entry0.(t))
  done;
  let stage_stats =
    Array.to_list
      (Array.mapi
         (fun s (label, d) ->
           {
             stage_label = label;
             service_s = d;
             slots = slots.(s);
             utilization = Float.min 1.0 (busy.(s) /. sim_time);
           })
         services)
  in
  let result =
    {
      tokens;
      sim_time_s = sim_time;
      measured_throughput_tokens_per_s = measured_tp;
      measured_latency_s = !latency_sum /. (window +. 1.0);
      predicted_throughput_tokens_per_s = Perf.throughput_tokens_per_s c ~context;
      predicted_latency_s = Perf.token_latency_s c ~context;
      total_slots = Array.fold_left ( + ) 0 slots;
      stage_stats;
    }
  in
  (match obs with
  | None -> ()
  | Some o ->
    let m = Hnlpu_obs.Sink.metrics o in
    List.iter
      (fun st -> Hnlpu_obs.Metrics.observe m "pipeline/stage_utilization" st.utilization)
      result.stage_stats;
    Hnlpu_obs.Metrics.incr m ~by:(float_of_int tokens) "pipeline/tokens";
    Hnlpu_obs.Metrics.set m "pipeline/measured_throughput_tokens_per_s"
      result.measured_throughput_tokens_per_s;
    Hnlpu_obs.Metrics.set m "pipeline/measured_latency_s" result.measured_latency_s;
    Hnlpu_obs.Metrics.set m "pipeline/predicted_throughput_tokens_per_s"
      result.predicted_throughput_tokens_per_s;
    Hnlpu_obs.Metrics.set m "pipeline/predicted_latency_s" result.predicted_latency_s);
  result

let busiest_stage t =
  match t.stage_stats with
  | [] -> invalid_arg "Trace.busiest_stage: empty"
  | first :: rest ->
    List.fold_left
      (fun best s -> if s.utilization > best.utilization then s else best)
      first rest
