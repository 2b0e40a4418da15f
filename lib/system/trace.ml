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

(* Span recording covers the first [obs_tokens] tokens: enough to see the
   pipeline fill and reach steady state without drowning the ring buffer in
   tokens x stages spans. *)
let obs_tokens = 32

let run ?(context = 2048) ?(tokens = 2000) ?obs (c : Config.t) =
  if tokens < 10 then invalid_arg "Trace.run: need at least 10 tokens";
  let table = Perf.design c ~context in
  let per_layer = Array.of_list (Perf.stage_times table) in
  let latency = Perf.total_s (Perf.decode table) in
  let pipeline_slots = float_of_int (Perf.pipeline_slots c) in
  (* The full pipeline: layer-major, stage-minor.  Labels and durations
     live in separate arrays, so the step loop below reads each duration
     unboxed. *)
  let k = Array.length per_layer in
  let n_stages = c.Config.num_layers * k in
  let labels =
    Array.init n_stages (fun i -> Printf.sprintf "L%02d/S%d" (i / k) ((i mod k) + 1))
  in
  let dur = Array.init n_stages (fun i -> snd per_layer.(i mod k)) in
  let ii_target = latency /. pipeline_slots in
  let slots = Array.map (fun d -> max 1 (int_of_float (ceil (d /. ii_target)))) dur in
  let ii = Array.mapi (fun i d -> d /. float_of_int slots.(i)) dur in
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
  (* The loop only notes the traced tokens' entry times; the spans are
     emitted after it, so the loop makes no call. *)
  let traced = match obs with None -> 0 | Some _ -> min tokens obs_tokens in
  let traced_entry = Array.make (traced * n_stages) 0.0 in
  for t = 0 to tokens - 1 do
    let clock = ref (float_of_int t *. inject_ii) in
    for s = 0 to n_stages - 1 do
      (* [Float.max], written out: neither operand is ever NaN. *)
      let free = last_entry.(s) +. ii.(s) in
      let enter = if free > !clock then free else !clock in
      last_entry.(s) <- enter;
      busy.(s) <- busy.(s) +. ii.(s);
      if s = 0 then entry0.(t) <- enter;
      if t < traced then traced_entry.((t * n_stages) + s) <- enter;
      clock := enter +. dur.(s)
    done;
    completion.(t) <- !clock
  done;
  (* One track per (stage, slot) keeps spans on a track disjoint — token
     t+slots enters at least d seconds after token t. *)
  Option.iter
    (fun o ->
      for t = 0 to traced - 1 do
        for s = 0 to n_stages - 1 do
          Hnlpu_obs.Sink.span o ~cat:"stage"
            ~args:[ ("token", Hnlpu_obs.Event.I t); ("stage", Hnlpu_obs.Event.I s) ]
            ~track:
              (Hnlpu_obs.Event.track ~process:"pipeline"
                 ~thread:(Printf.sprintf "%s#%d" labels.(s) (t mod slots.(s))))
            ~name:(Printf.sprintf "tok%03d" t)
            ~start_s:traced_entry.((t * n_stages) + s)
            ~dur_s:dur.(s)
        done
      done)
    obs;
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
    List.init n_stages (fun s ->
        {
          stage_label = labels.(s);
          service_s = dur.(s);
          slots = slots.(s);
          utilization = Float.min 1.0 (busy.(s) /. sim_time);
        })
  in
  let result =
    {
      tokens;
      sim_time_s = sim_time;
      measured_throughput_tokens_per_s = measured_tp;
      measured_latency_s = !latency_sum /. (window +. 1.0);
      predicted_throughput_tokens_per_s = pipeline_slots /. latency;
      predicted_latency_s = latency;
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
