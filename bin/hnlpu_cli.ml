(* hnlpu — command-line front end for the HNLPU reproduction.

   Subcommands map to the paper's evaluation artifacts:
     tables     regenerate any/all of the paper's tables and figures
     perf       performance model queries (throughput, latency, breakdown)
     tco        total-cost-of-ownership scenarios
     nre        mask NRE for arbitrary model footprints
     simulate   continuous-batching workload simulation
     generate   run the tiny reference MoE transformer end-to-end
     neuron     run the three embedding machines on the operator benchmark *)

open Cmdliner
open Hnlpu

let config = Config.gpt_oss_120b

let write_file path content =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content)

(* Shared by every subcommand that runs parallel sweeps: -j N forces the
   Par pool width for the whole invocation.  Results are identical for
   every width, so this is purely a speed knob. *)
let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Domain-pool width for parallel sweeps (default: $(b,HNLPU_DOMAINS) \
           or the machine's recommended domain count).  Results are \
           byte-identical for every width.")

let set_jobs jobs =
  (* Validate HNLPU_DOMAINS up front even when this invocation happens not
     to fan out (1-point sweeps shortcut past width resolution): a typo'd
     width should fail loudly and cleanly before the run starts. *)
  ignore (Par.env_domains ());
  match jobs with None -> () | Some j -> Par.set_default_domains j

(* --- tables ----------------------------------------------------------- *)

let tables_cmd =
  let which =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:
            "Which artifact to print: figure2, figure12, figure13, figure14, \
             table1..table5. Prints everything when omitted.")
  in
  let run jobs which =
    set_jobs jobs;
    match which with
    | None ->
      print_string (Experiments.render_all ());
      let reports = Experiments.neuron_reports () in
      List.iter
        (fun (title, chart) -> Printf.printf "\n%s\n%s" title chart)
        [
          ("Figure 12 (area vs the MA SRAM baseline)", Experiments.figure12_chart reports);
          ("Figure 13 (energy per GEMV, log scale, nJ)", Experiments.figure13_chart reports);
          ("Figure 14 (execution-time breakdown per token)", Experiments.figure14_chart ());
        ]
    | Some name ->
      let pick =
        match String.lowercase_ascii name with
        | "figure2" | "fig2" -> Some (Experiments.figure2 ())
        | "figure12" | "fig12" -> Some (Experiments.figure12 ())
        | "figure13" | "fig13" -> Some (Experiments.figure13 ())
        | "figure14" | "fig14" -> Some (Experiments.figure14 ())
        | "table1" -> Some (Experiments.table1 ())
        | "table2" -> Some (Experiments.table2 ())
        | "table3" -> Some (Experiments.table3 ())
        | "table4" -> Some (Experiments.table4 ())
        | "table5" -> Some (Experiments.table5 ())
        | _ -> None
      in
      (match pick with
      | Some t -> Table.print t
      | None -> invalid_arg (Printf.sprintf "tables: unknown artifact %S" name))
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Regenerate the paper's tables and figures")
    Term.(const run $ jobs_arg $ which)

(* --- perf ------------------------------------------------------------- *)

let context_arg =
  Arg.(
    value & opt int 2048
    & info [ "context"; "c" ] ~docv:"TOKENS" ~doc:"Context length in tokens.")

let metrics_arg =
  Arg.(
    value & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Also write the run's metrics registry as JSON to $(docv).")

let perf_cmd =
  let stages_flag =
    Arg.(value & flag & info [ "stages" ] ~doc:"Also print the Figure 11 six-stage split.")
  in
  let run context stages metrics_out =
    let b = Perf.token_breakdown config ~context in
    let f = Perf.fractions b in
    Printf.printf "HNLPU on %s, context %d:\n" config.Config.name context;
    Printf.printf "  token latency     %s\n" (Units.seconds (Perf.total_s b));
    Printf.printf "  pipeline slots    %d\n" (Perf.pipeline_slots config);
    Printf.printf "  throughput        %s tokens/s\n"
      (Units.group_thousands
         (int_of_float (Perf.throughput_tokens_per_s config ~context)));
    let line name v frac =
      Printf.printf "  %-12s %10s  %s\n" name (Units.seconds v) (Units.percent frac)
    in
    line "CXL comm" b.Perf.comm_s f.Perf.comm_s;
    line "projection" b.Perf.projection_s f.Perf.projection_s;
    line "non-linear" b.Perf.nonlinear_s f.Perf.nonlinear_s;
    line "attention" b.Perf.attention_s f.Perf.attention_s;
    line "stall" b.Perf.stall_s f.Perf.stall_s;
    if stages then begin
      print_newline ();
      let t = Table.create ~headers:[ "Pipeline stage (Figure 11)"; "Latency" ] in
      List.iter
        (fun (name, d) -> Table.add_row t [ name; Units.seconds d ])
        (Perf.stage_times_s config ~context);
      Table.print t
    end;
    match metrics_out with
    | None -> ()
    | Some path ->
      let m = Obs.Metrics.create () in
      let set = Obs.Metrics.set m in
      set "perf/context" (float_of_int context);
      set "perf/token_latency_s" (Perf.total_s b);
      set "perf/pipeline_slots" (float_of_int (Perf.pipeline_slots config));
      set "perf/throughput_tokens_per_s" (Perf.throughput_tokens_per_s config ~context);
      set "perf/comm_s" b.Perf.comm_s;
      set "perf/projection_s" b.Perf.projection_s;
      set "perf/nonlinear_s" b.Perf.nonlinear_s;
      set "perf/attention_s" b.Perf.attention_s;
      set "perf/stall_s" b.Perf.stall_s;
      List.iter
        (fun (name, d) -> set (Printf.sprintf "perf/stage_s/%s" name) d)
        (Perf.stage_times_s config ~context);
      write_file path (Obs.Metrics.to_json m);
      Printf.printf "metrics written to %s\n" path
  in
  Cmd.v
    (Cmd.info "perf" ~doc:"Throughput/latency/breakdown at a context length")
    Term.(const run $ context_arg $ stages_flag $ metrics_arg)

(* --- tco ---------------------------------------------------------------- *)

let tco_cmd =
  let run () =
    Table.print ~title:"3-Year TCO (Table 3)" (Experiments.table3 ());
    print_newline ();
    let lo, hi = Tco.tco_dynamic_ratio Tco.High in
    Printf.printf "High-volume TCO advantage (annual updates): %.1fx - %.1fx\n" lo hi;
    Printf.printf "High-volume carbon advantage: %.0fx\n" (Tco.carbon_ratio Tco.High)
  in
  Cmd.v (Cmd.info "tco" ~doc:"Total cost of ownership scenarios") Term.(const run $ const ())

(* --- nre ---------------------------------------------------------------- *)

let nre_cmd =
  let params =
    Arg.(
      value & opt (some float) None
      & info [ "params"; "p" ] ~docv:"N" ~doc:"Model parameter count (e.g. 120e9).")
  in
  let bits =
    Arg.(
      value & opt float 4.0
      & info [ "bits"; "b" ] ~docv:"BITS" ~doc:"Native bits per parameter.")
  in
  let strawman =
    Arg.(value & flag & info [ "strawman" ] ~doc:"Show the cell-embedding straw-man instead.")
  in
  let run params bits strawman =
    if strawman then begin
      let s = Strawman.estimate config in
      Printf.printf "Straw-man (cell-embedding) hardwiring of %s:\n" config.Config.name;
      Printf.printf "  CMAC area        %s mm2\n"
        (Units.group_thousands (int_of_float s.Strawman.area_mm2));
      Printf.printf "  chips            %d\n" s.Strawman.chips;
      Printf.printf "  photomask bill   %s\n" (Units.dollars s.Strawman.mask_cost_usd)
    end
    else begin
      match params with
      | None -> Table.print ~title:"Table 4: NRE on various models" (Experiments.table4 ())
      | Some p ->
        let model =
          {
            config with
            Config.name = "custom";
            bits_per_param = bits;
            total_params_override = Some p;
          }
        in
        let r = Model_nre.row model in
        Printf.printf "%s params at %.1f b/param: %.1f chips, mask NRE %s\n"
          (Units.si p) bits r.Model_nre.chips (Units.dollars r.Model_nre.nre_usd)
    end
  in
  Cmd.v
    (Cmd.info "nre" ~doc:"Sea-of-Neurons mask NRE for a model footprint")
    Term.(const run $ params $ bits $ strawman)

(* --- simulate -------------------------------------------------------------- *)

(* The simulate/trace workload: Poisson arrivals with geometric prompt
   and decode lengths, drawn from a seeded Arrivals cursor. *)
let requests_term =
  let n = Arg.(value & opt int 200 & info [ "requests"; "n" ] ~doc:"Number of requests.") in
  let rate =
    Arg.(value & opt float 1000.0 & info [ "rate" ] ~doc:"Arrival rate (requests/s).")
  in
  let prefill = Arg.(value & opt int 128 & info [ "prefill" ] ~doc:"Mean prompt tokens.") in
  let decode = Arg.(value & opt int 128 & info [ "decode" ] ~doc:"Mean decode tokens.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.") in
  let requests n rate prefill decode seed =
    let spec =
      {
        (Arrivals.chat ~rate_per_s:rate) with
        Arrivals.prefill = Arrivals.Geometric { mean = prefill };
        decode = Arrivals.Geometric { mean = decode };
      }
    in
    Scheduler.requests ~n (Arrivals.create ~seed spec)
  in
  Term.(const requests $ n $ rate $ prefill $ decode $ seed)

let simulate_cmd =
  let run reqs context metrics_out =
    let obs =
      match metrics_out with None -> None | Some _ -> Some (Obs.Sink.create ())
    in
    let r = Scheduler.simulate ~context ?obs config reqs in
    Printf.printf "Continuous batching on %d slots (%d requests):\n"
      (Perf.pipeline_slots config) (List.length reqs);
    Printf.printf "  makespan          %s\n" (Units.seconds r.Scheduler.makespan_s);
    Printf.printf "  tokens processed  %s (%s decode)\n"
      (Units.group_thousands r.Scheduler.tokens_processed)
      (Units.group_thousands r.Scheduler.decode_tokens_out);
    Printf.printf "  throughput        %s tokens/s (bound %s)\n"
      (Units.group_thousands (int_of_float r.Scheduler.throughput_tokens_per_s))
      (Units.group_thousands (int_of_float (Scheduler.saturated_throughput ~context config)));
    Printf.printf "  slot occupancy    %s\n" (Units.percent r.Scheduler.mean_slot_occupancy);
    (* Streamed through the bounded-memory sketch (1/64 relative error)
       rather than materializing a TTFT array per run. *)
    let ttft = Obs.Sketch.create () in
    List.iter
      (fun c ->
        Obs.Sketch.observe ttft
          (c.Scheduler.first_token_s -. c.Scheduler.request.Scheduler.arrival_s))
      r.Scheduler.completed_requests;
    if Obs.Sketch.count ttft > 0 then begin
      Printf.printf "  TTFT p50 / p95    %s / %s\n"
        (Units.seconds (Obs.Sketch.quantile ttft 0.5))
        (Units.seconds (Obs.Sketch.quantile ttft 0.95))
    end;
    match (obs, metrics_out) with
    | Some o, Some path ->
      write_file path (Obs.Metrics.to_json (Obs.Sink.metrics o));
      Printf.printf "metrics written to %s\n" path
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Continuous-batching workload simulation")
    Term.(const run $ requests_term $ context_arg $ metrics_arg)

(* --- trace ---------------------------------------------------------------- *)

let trace_cmd =
  let tokens =
    Arg.(
      value & opt int 200
      & info [ "tokens" ] ~doc:"Tokens through the stage-level pipeline simulator.")
  in
  let out =
    Arg.(
      value & opt string "trace.json"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Chrome trace-event JSON output path.")
  in
  let jsonl =
    Arg.(
      value & opt (some string) None
      & info [ "jsonl" ] ~docv:"FILE" ~doc:"Also write the event stream as JSONL.")
  in
  let metrics_json =
    Arg.(
      value & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE" ~doc:"Write the metrics registry as JSON.")
  in
  let run reqs tokens context out jsonl metrics_json =
    let obs = Obs.Sink.create () in
    (* One sink, three simulators, one simulated timeline: the serving
       scheduler, the stage-level decode pipeline, and the NoC plan of the
       MoE combine (the layer program's all-chip all-reduce) — plus the
       thermal operating point. *)
    let r = Scheduler.simulate ~context ~obs config reqs in
    let t = Trace.run ~tokens ~context ~obs config in
    let moe =
      List.nth Layer_program.program (Layer_program.index Layer_program.Moe)
    in
    let vals =
      List.map
        (fun c -> (c, Array.init 8 (fun i -> float_of_int (c + i))))
        Topology.all_chips
    in
    ignore (Schedule.run ~obs (Layer_program.collective config moe ~instance:0) vals);
    let th = Thermal.analyze ~config ~obs () in
    write_file out (Obs.Chrome_trace.to_json (Obs.Sink.events obs));
    (match jsonl with
    | Some path -> write_file path (Obs.Chrome_trace.to_jsonl (Obs.Sink.events obs))
    | None -> ());
    (match metrics_json with
    | Some path -> write_file path (Obs.Metrics.to_json (Obs.Sink.metrics obs))
    | None -> ());
    Printf.printf "trace written to %s (%d events, %d dropped)\n" out
      (List.length (Obs.Sink.events obs))
      (Obs.Sink.dropped obs);
    Printf.printf
      "  scheduler: %d requests, %s tokens/s, occupancy %s\n"
      (List.length r.Scheduler.completed_requests)
      (Units.group_thousands (int_of_float r.Scheduler.throughput_tokens_per_s))
      (Units.percent r.Scheduler.mean_slot_occupancy);
    Printf.printf "  pipeline:  %d tokens, measured %s tokens/s\n" tokens
      (Units.group_thousands (int_of_float t.Trace.measured_throughput_tokens_per_s));
    Printf.printf "  thermal:   junction %.1fC (%s)\n" th.Thermal.junction_temp_c
      (if th.Thermal.within_limits then "within limits" else "OVER LIMITS");
    print_newline ();
    Table.print ~title:"Metrics" (Obs.Metrics.to_table (Obs.Sink.metrics obs))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run an instrumented workload and export spans/metrics: a Chrome \
          trace-event JSON (load in Perfetto or chrome://tracing) covering \
          the scheduler, the stage-level pipeline and the NoC collectives \
          on one simulated timeline")
    Term.(
      const run $ requests_term $ tokens $ context_arg $ out $ jsonl
      $ metrics_json)

(* --- generate ------------------------------------------------------------- *)

let generate_cmd =
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Weight/sampling seed.") in
  let tokens = Arg.(value & opt int 24 & info [ "tokens"; "t" ] ~doc:"Tokens to generate.") in
  let temp = Arg.(value & opt float 1.0 & info [ "temperature" ] ~doc:"Sampling temperature.") in
  let run seed tokens temp =
    let rng = Rng.create seed in
    let w = Weights.random (Rng.split rng) Config.tiny in
    let t = Transformer.create w in
    let out =
      Transformer.generate rng t ~prompt:[ 1; 2; 3 ] ~max_new_tokens:tokens
        (Sampler.Temperature temp)
    in
    Printf.printf "tiny-moe (%d params), prompt [1;2;3] ->\n"
      (Weights.count_params w);
    List.iter (Printf.printf "%d ") out;
    print_newline ();
    let load = Transformer.expert_load t in
    Printf.printf "expert load: ";
    Array.iter (Printf.printf "%d ") load;
    print_newline ()
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Token generation with the tiny reference model")
    Term.(const run $ seed $ tokens $ temp)

(* --- neuron ------------------------------------------------------------------ *)

let neuron_cmd =
  let seed = Arg.(value & opt int 20260706 & info [ "seed" ] ~doc:"Weight seed.") in
  let run seed =
    let reports = Experiments.neuron_reports ~seed () in
    Table.print ~title:"Operator benchmark: 1x1024 . 1024x128 FP4"
      (Neuron_report.to_table Tech.n5 reports)
  in
  Cmd.v
    (Cmd.info "neuron" ~doc:"Run MA/CE/ME machines on the operator benchmark")
    Term.(const run $ seed)

(* --- ablate ------------------------------------------------------------------ *)

let ablate_cmd =
  let which =
    Arg.(
      value & pos 0 string "all"
      & info [] ~docv:"STUDY"
          ~doc:"interconnect | programmability | precision | slack | chunk | window | all")
  in
  let run jobs which =
    set_jobs jobs;
    let interconnect () =
      let t =
        Table.create
          ~headers:[ "Interconnect"; "GB/s"; "PHY (ns)"; "Tokens/s"; "Comm share" ]
      in
      List.iter
        (fun r ->
          Table.add_row t
            [
              r.Ablation.link_name;
              Printf.sprintf "%.0f" r.Ablation.bandwidth_gbps;
              Printf.sprintf "%.0f" r.Ablation.latency_ns;
              Units.group_thousands (int_of_float r.Ablation.throughput_tokens_per_s);
              Units.percent r.Ablation.comm_fraction;
            ])
        (Ablation.interconnect_sweep config);
      Table.print ~title:"Interconnect ablation (§7.4/§8)" t
    in
    let programmability () =
      let t =
        Table.create
          ~headers:
            [ "Variant"; "T/weight"; "Chips"; "Silicon (mm2)"; "Mask NRE";
              "Re-spin"; "Rel. throughput" ]
      in
      List.iter
        (fun r ->
          Table.add_row t
            [
              r.Ablation.variant;
              Printf.sprintf "%.1f" r.Ablation.tr_per_weight;
              string_of_int r.Ablation.chips;
              Units.group_thousands (int_of_float r.Ablation.silicon_mm2);
              Units.dollars r.Ablation.mask_nre_usd;
              Units.dollars r.Ablation.respin_usd;
              Printf.sprintf "%.2fx" r.Ablation.relative_throughput;
            ])
        (Ablation.programmability config);
      Table.print ~title:"Field- vs metal-programmable (§8)" t
    in
    let precision () =
      let t =
        Table.create
          ~headers:[ "Act bits"; "Serial planes"; "Projection us/layer"; "Tokens/s" ]
      in
      List.iter
        (fun r ->
          Table.add_row t
            [
              string_of_int r.Ablation.act_bits;
              string_of_int r.Ablation.serial_planes;
              Printf.sprintf "%.2f" r.Ablation.projection_us_per_layer;
              Units.group_thousands (int_of_float r.Ablation.throughput_tokens_per_s);
            ])
        (Ablation.precision_sweep config);
      Table.print ~title:"Activation-precision ablation" t
    in
    let slack () =
      let t = Table.create ~headers:[ "Slack"; "Routing failure rate"; "Area ratio" ] in
      List.iter
        (fun r ->
          Table.add_row t
            [
              Printf.sprintf "%.2f" r.Ablation.slack;
              Units.percent r.Ablation.failure_rate;
              Printf.sprintf "%.2fx" r.Ablation.area_ratio;
            ])
        (Ablation.slack_sweep (Rng.create 7) ());
      Table.print ~title:"POPCNT region slack (Monte-Carlo, random FP4 rows)" t
    in
    let window () =
      let t =
        Table.create
          ~headers:[ "Context"; "Full attn tok/s"; "Sliding-window tok/s"; "Speedup" ]
      in
      List.iter
        (fun r ->
          Table.add_row t
            [
              Printf.sprintf "%dK" (r.Ablation.window_context / 1024);
              Units.group_thousands (int_of_float r.Ablation.full_tokens_per_s);
              Units.group_thousands (int_of_float r.Ablation.windowed_tokens_per_s);
              Printf.sprintf "%.2fx" r.Ablation.speedup;
            ])
        (Ablation.sliding_window_sweep ());
      Table.print ~title:"Alternating 128-token sliding window (real gpt-oss)" t
    in
    let chunk () =
      let t = Table.create ~headers:[ "Prefill chunk"; "Tokens/s" ] in
      List.iter
        (fun (c, tp) ->
          Table.add_row t [ string_of_int c; Units.group_thousands (int_of_float tp) ])
        (Ablation.chunk_sweep config);
      Table.print ~title:"Prefill chunking (§5.2)" t
    in
    match String.lowercase_ascii which with
    | "interconnect" -> interconnect ()
    | "programmability" -> programmability ()
    | "precision" -> precision ()
    | "slack" -> slack ()
    | "chunk" -> chunk ()
    | "window" -> window ()
    | "all" ->
      interconnect ();
      print_newline ();
      programmability ();
      print_newline ();
      precision ();
      print_newline ();
      slack ();
      print_newline ();
      chunk ();
      print_newline ();
      window ()
    | other -> invalid_arg (Printf.sprintf "ablate: unknown study %S" other)
  in
  Cmd.v
    (Cmd.info "ablate" ~doc:"Ablation studies for the §8 design choices")
    Term.(const run $ jobs_arg $ which)

(* --- deploy ------------------------------------------------------------------- *)

let deploy_cmd =
  let updates =
    Arg.(value & opt float 1.0 & info [ "updates-per-year" ] ~doc:"Weight updates per year.")
  in
  let run updates =
    let plan = { Deployment.annual_plan with Deployment.updates_per_year = updates } in
    let bg = Deployment.blue_green plan in
    Printf.printf "Blue-green deployment over %.0f years, %.1f updates/year:\n"
      plan.Deployment.years updates;
    let lo, hi = bg.Deployment.respin_bill in
    Printf.printf "  re-spins            %d (%s ~ %s)\n" bg.Deployment.total_updates
      (Units.dollars lo) (Units.dollars hi);
    Printf.printf "  transition weeks    %.0f (fleet briefly 2x)\n"
      bg.Deployment.weeks_in_transition;
    Printf.printf "  downtime            %.0f weeks\n" bg.Deployment.downtime_weeks;
    print_newline ();
    let t =
      Table.create
        ~headers:[ "Fleet"; "TCO (3y, dyn)"; "$ / Mtoken"; "H100 $ / Mtoken" ]
    in
    List.iter
      (fun p ->
        let lo, hi = p.Deployment.usd_per_mtoken in
        let tlo, thi = p.Deployment.tco_usd in
        Table.add_row t
          [
            string_of_int p.Deployment.systems;
            Printf.sprintf "%s ~ %s" (Units.dollars tlo) (Units.dollars thi);
            Printf.sprintf "%.2f ~ %.2f" lo hi;
            Printf.sprintf "%.2f" p.Deployment.h100_usd_per_mtoken;
          ])
      (Deployment.volume_sweep [ 1; 2; 5; 10; 50; 200 ]);
    Table.print ~title:"Cost per million tokens vs fleet size (60% utilization)" t;
    (match Deployment.crossover_systems () with
    | Some n -> Printf.printf "\nPessimistic HNLPU beats the H100 cluster from %d system(s).\n" n
    | None -> print_endline "\nNo crossover within 1000 systems.")
  in
  Cmd.v
    (Cmd.info "deploy" ~doc:"Blue-green updates and volume amortization (§8)")
    Term.(const run $ updates)

(* --- signoff -------------------------------------------------------------------- *)

let signoff_cmd =
  let run () =
    print_endline "Layout characteristics (paper §7.1)";
    print_endline "===================================";
    let th = Thermal.analyze () in
    Printf.printf "Thermal: avg %.3f W/mm2, peak %.2f W/mm2 (DLC limit %.1f), \
                   junction %.1fC -> %s\n"
      th.Thermal.average_w_per_mm2 th.Thermal.peak_w_per_mm2 Thermal.dlc_limit_w_per_mm2
      th.Thermal.junction_temp_c
      (if th.Thermal.within_limits then "PASS" else "FAIL");
    let r = Routing.analyze config in
    Printf.printf "ME routing (M8-M11): %.1f%% density (<70%% required) -> %s\n"
      (r.Routing.utilization *. 100.0)
      (if r.Routing.congestion_free then "PASS" else "FAIL");
    Printf.printf "Parasitics: avg R = %.0f ohm, C = %.2f fF, wire delay %.2f ps\n"
      r.Routing.avg_resistance_ohm r.Routing.avg_capacitance_ff r.Routing.wire_delay_ps;
    Printf.printf "Yield: %.1f%% (Murphy, D0=%.2f/cm2), %d good dies/wafer, $%.0f/die\n"
      (100.0 *. Yield.murphy ~defect_density_per_cm2:0.11 ~die_area_mm2:827.08)
      0.11
      (Yield.good_dies_per_wafer Tech.n5 ~die_area_mm2:827.08)
      (Yield.cost_per_good_die Tech.n5 ~die_area_mm2:827.08);
    print_newline ();
    print_endline "Pipeline trace validation (6 x 36 stages)";
    let t = Trace.run ~tokens:1000 config in
    Printf.printf "  simulated latency %.1f us (model %.1f us)\n"
      (t.Trace.measured_latency_s *. 1e6) (t.Trace.predicted_latency_s *. 1e6);
    Printf.printf "  simulated throughput %s tokens/s (model %s)\n"
      (Units.group_thousands (int_of_float t.Trace.measured_throughput_tokens_per_s))
      (Units.group_thousands (int_of_float t.Trace.predicted_throughput_tokens_per_s));
    let b = Trace.busiest_stage t in
    Printf.printf "  bottleneck stage %s (%.2f us service, %.0f%% utilized)\n"
      b.Trace.stage_label (b.Trace.service_s *. 1e6) (b.Trace.utilization *. 100.0);
    print_newline ();
    let tr = Traffic.analyze config in
    Printf.printf
      "Fabric traffic: %.1f MB/token, %.2f TB/s of %.2f TB/s capacity (%.0f%%);\n      \  implied M/M/1 queueing factor %.2f vs calibrated %.2f -> %s\n"
      (tr.Traffic.bytes_per_token /. 1e6)
      (tr.Traffic.demand_bytes_per_s /. 1e12)
      (tr.Traffic.fabric_capacity_bytes_per_s /. 1e12)
      (100.0 *. tr.Traffic.mean_link_utilization)
      tr.Traffic.queueing_factor_mm1 Perf.link_contention_factor
      (if tr.Traffic.corroborates_calibration then "CONSISTENT" else "INCONSISTENT");
    print_newline ();
    Table.print
      ~title:
        (Printf.sprintf "Calibrated constants (%d knobs, see EXPERIMENTS.md)"
           (Calibration.count ()))
      (Calibration.to_table ())
  in
  Cmd.v
    (Cmd.info "signoff" ~doc:"Layout characteristics and pipeline validation (§7.1)")
    Term.(const run $ const ())

(* --- carbon --------------------------------------------------------------------- *)

let carbon_cmd =
  let run () =
    let s = Carbon.hnlpu_split Tco.High in
    Printf.printf "HNLPU (high volume, annual updates): %.0f t CO2e over 3 years\n"
      s.Carbon.total_t;
    Printf.printf "  embodied %.0f t + re-spins %.0f t + operational %.0f t (%.0f%%)\n"
      s.Carbon.embodied_t s.Carbon.respin_embodied_t s.Carbon.operational_t
      (100.0 *. Carbon.operational_fraction s);
    Printf.printf "  %.1f g CO2e per million tokens served\n\n"
      (Carbon.g_per_million_tokens ());
    let t = Table.create ~headers:[ "Grid kg/kWh"; "HNLPU t"; "H100 t"; "Advantage" ] in
    List.iter
      (fun (g, hn, gpu) ->
        Table.add_row t
          [
            Printf.sprintf "%.2f" g;
            Printf.sprintf "%.0f" hn;
            Printf.sprintf "%.0f" gpu;
            Printf.sprintf "%.0fx" (gpu /. hn);
          ])
      (Carbon.grid_sweep [ 0.0; 0.1; 0.2; 0.38; 0.7 ]);
    Table.print ~title:"Carbon advantage vs grid intensity" t;
    print_newline ();
    Table.print ~title:"Per-token energy decomposition (Table 2's 36 tokens/J)"
      (Energy.to_table (Energy.analyze ()));
    print_newline ();
    Table.print ~title:"TCO tornado: single-factor stress (0.5x .. 2x)"
      (Sensitivity.to_table (Sensitivity.tornado ()))
  in
  Cmd.v
    (Cmd.info "carbon" ~doc:"Carbon-footprint deep dive (Appendix B note 8)")
    Term.(const run $ const ())

(* --- export ---------------------------------------------------------------------- *)

let export_cmd =
  let dir =
    Arg.(value & opt string "results" & info [ "dir"; "o" ] ~doc:"Output directory.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON instead of CSV.") in
  let run jobs dir json =
    set_jobs jobs;
    let paths =
      if json then Experiments.export_json ~dir else Experiments.export_csv ~dir
    in
    List.iter print_endline paths;
    Printf.printf "%d artifacts exported.\n" (List.length paths)
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Write every table/figure as CSV or JSON")
    Term.(const run $ jobs_arg $ dir $ json)

(* --- slo ----------------------------------------------------------------------- *)

let slo_cmd =
  let ttft =
    Arg.(value & opt float 0.2 & info [ "ttft" ] ~doc:"TTFT p95 objective (s).")
  in
  let e2e =
    Arg.(value & opt float 30.0 & info [ "e2e" ] ~doc:"End-to-end p95 objective (s).")
  in
  let prefill = Arg.(value & opt int 256 & info [ "prefill" ] ~doc:"Mean prompt tokens.") in
  let decode = Arg.(value & opt int 128 & info [ "decode" ] ~doc:"Mean decode tokens.") in
  let rates =
    Arg.(
      value
      & opt (some (list float)) None
      & info [ "rates" ] ~docv:"R1,R2,..."
          ~doc:
            "Evaluate these offered rates (requests/s) across the domain \
             pool and print the sweep table instead of bisecting.")
  in
  let run jobs ttft e2e prefill decode rates =
    set_jobs jobs;
    let obj = { Slo.ttft_p95_s = ttft; e2e_p95_s = e2e } in
    match rates with
    | Some rs ->
      let t =
        Table.create
          ~headers:
            [ "Rate (req/s)"; "Tokens/s"; "TTFT p95"; "E2E p95"; "Occupancy"; "Meets" ]
      in
      List.iter
        (fun e ->
          Table.add_row t
            [
              Printf.sprintf "%.0f" e.Slo.rate_per_s;
              Units.group_thousands (int_of_float e.Slo.throughput_tokens_per_s);
              Units.seconds e.Slo.ttft_p95;
              Units.seconds e.Slo.e2e_p95;
              Units.percent e.Slo.occupancy;
              (if e.Slo.meets then "yes" else "NO");
            ])
        (Slo.sweep ~mean_prefill:prefill ~mean_decode:decode config obj ~rates:rs);
      Table.print
        ~title:
          (Printf.sprintf "SLO sweep (TTFT p95 <= %gs, E2E p95 <= %gs)" ttft e2e)
        t
    | None ->
      let rate = Slo.max_rate ~mean_prefill:prefill ~mean_decode:decode config obj in
      Printf.printf
        "Max sustainable rate under TTFT p95 <= %gs, E2E p95 <= %gs (~%d+%d tokens): \
         %.0f requests/s\n"
        ttft e2e prefill decode rate;
      let e =
        Slo.evaluate ~mean_prefill:prefill ~mean_decode:decode config obj ~rate_per_s:rate
      in
      Printf.printf "At that rate: %s tokens/s, TTFT p95 %s, E2E p95 %s, occupancy %s\n"
        (Units.group_thousands (int_of_float e.Slo.throughput_tokens_per_s))
        (Units.seconds e.Slo.ttft_p95) (Units.seconds e.Slo.e2e_p95)
        (Units.percent e.Slo.occupancy)
  in
  Cmd.v
    (Cmd.info "slo" ~doc:"Capacity under latency objectives (bisection or rate sweep)")
    Term.(const run $ jobs_arg $ ttft $ e2e $ prefill $ decode $ rates)

(* --- fleet --------------------------------------------------------------------- *)

let fleet_cmd =
  let nodes =
    Arg.(value & opt int 64 & info [ "nodes" ] ~doc:"Fleet size (HNLPU nodes).")
  in
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ]
          ~doc:
            "Determinism granule: the node range splits into this many \
             shards regardless of -j (default min(8, nodes)).")
  in
  let n =
    Arg.(value & opt int 200_000 & info [ "requests"; "n" ] ~doc:"Trace length.")
  in
  let policy =
    Arg.(
      value & opt string "ll"
      & info [ "policy" ]
          ~doc:"Routing policy: rr, ll, sa, or pa (see the README).")
  in
  let process =
    Arg.(
      value & opt string "poisson"
      & info [ "process" ] ~doc:"Arrival process: poisson, diurnal, or mmpp.")
  in
  let rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "rate" ]
          ~doc:"Offered request rate (req/s; default 80% of fleet capacity).")
  in
  let prefill =
    Arg.(value & opt int 128 & info [ "prefill" ] ~doc:"Mean prompt tokens.")
  in
  let decode =
    Arg.(value & opt int 128 & info [ "decode" ] ~doc:"Mean decode tokens.")
  in
  let pareto =
    Arg.(
      value
      & opt (some float) None
      & info [ "pareto" ] ~docv:"ALPHA"
          ~doc:
            "Draw decode lengths from a Pareto tail with this shape \
             (same mean as --decode) instead of Geometric.")
  in
  let users =
    Arg.(value & opt int 10_000 & info [ "users" ] ~doc:"Distinct user ids.")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Trace seed.") in
  let fail =
    Arg.(
      value
      & opt (some float) None
      & info [ "fail" ] ~docv:"FRACTION"
          ~doc:
            "Fail this fraction of nodes a quarter into the trace, \
             recovering them a quarter later.")
  in
  let sweep =
    Arg.(
      value
      & opt (some (list float)) None
      & info [ "sweep" ] ~docv:"U1,U2,..."
          ~doc:
            "Instead of one run, sweep the SLO capacity frontier: all four \
             policies at these fractions of fleet capacity.")
  in
  let run jobs nodes shards n policy process rate prefill decode pareto users
      seed fail sweep =
    set_jobs jobs;
    if n < 1 then invalid_arg "fleet: --requests must be at least 1";
    if List.exists (fun u -> not (u > 0.0 && Float.is_finite u))
         (Option.value sweep ~default:[])
    then invalid_arg "fleet: --sweep fractions must be positive and finite";
    let shards = match shards with Some s -> s | None -> min 8 nodes in
    let cfg = Fleet.config_of_model ~shards ~nodes config in
    let decode_dist =
      match pareto with
      | None -> Arrivals.Geometric { mean = decode }
      | Some alpha ->
        if not (alpha > 1.0 && Float.is_finite alpha) then
          invalid_arg "fleet: --pareto ALPHA must exceed 1 (finite mean)";
        (* xmin chosen so the (uncapped) Pareto mean alpha*xmin/(alpha-1)
           equals the requested --decode mean. *)
        Arrivals.Pareto
          {
            alpha;
            xmin = float_of_int decode *. (alpha -. 1.0) /. alpha;
            cap = 100 * decode;
          }
    in
    let proc =
      (* Rates here are placeholders: [with_mean_rate] rescales the whole
         process to the offered rate below. *)
      match String.lowercase_ascii process with
      | "poisson" -> Arrivals.Poisson { rate_per_s = 1.0 }
      | "diurnal" ->
        Arrivals.Diurnal
          { mean_rate_per_s = 1.0; amplitude = 0.6; period_s = 3600.0 }
      | "mmpp" ->
        Arrivals.Mmpp { rates_per_s = [| 0.5; 2.0 |]; mean_dwell_s = 60.0 }
      | p ->
        invalid_arg
          (Printf.sprintf "fleet: unknown process %S (poisson|diurnal|mmpp)" p)
    in
    let policy =
      match Fleet.policy_of_string policy with
      | Some p -> p
      | None ->
        invalid_arg (Printf.sprintf "fleet: unknown policy %S (rr|ll|sa|pa)" policy)
    in
    let spec =
      {
        Arrivals.process = proc;
        prefill = Arrivals.Geometric { mean = prefill };
        decode = decode_dist;
        users;
      }
    in
    let capacity = Fleet.capacity_req_per_s cfg spec in
    let offered = match rate with Some r -> r | None -> 0.8 *. capacity in
    let spec = Arrivals.with_mean_rate spec offered in
    let node_events =
      match fail with
      | None -> None
      | Some fraction ->
        let quarter = float_of_int n /. offered /. 4.0 in
        Some
          (Fleet.fail_recover_schedule ~nodes ~fraction ~at_s:quarter
             ~recover_after_s:quarter)
    in
    Printf.printf
      "%d nodes (%d shards), capacity %.0f req/s at %d+%d tokens; offering \
       %.0f req/s (%.0f%%)\n"
      nodes shards capacity prefill decode offered
      (100.0 *. offered /. capacity);
    match sweep with
    | Some fractions ->
      let rates = List.map (fun u -> u *. capacity) fractions in
      let points =
        Fleet.sweep ?node_events
          ~policies:
            [
              Fleet.Round_robin;
              Fleet.Least_loaded;
              Fleet.Session_affinity;
              Fleet.Power_aware;
            ]
          ~rates ~requests:n ~seed Fleet.interactive cfg spec
      in
      let t =
        Table.create
          ~headers:
            [
              "Policy"; "Offered (req/s)"; "Capacity"; "TTFT p50"; "TTFT p99";
              "E2E p99"; "Imbalance"; "Tokens/s"; "Dropped"; "SLO";
            ]
      in
      List.iter
        (fun p ->
          Table.add_row t
            [
              Fleet.policy_name p.Fleet.fp_policy;
              Printf.sprintf "%.0f" p.Fleet.offered_req_per_s;
              Units.percent p.Fleet.utilization_of_capacity;
              Units.seconds p.Fleet.ttft_p50_s;
              Units.seconds p.Fleet.ttft_p99_s;
              Units.seconds p.Fleet.e2e_p99_s;
              Printf.sprintf "%.2fx" p.Fleet.fp_imbalance;
              Units.group_thousands
                (int_of_float p.Fleet.fp_throughput_tokens_per_s);
              string_of_int p.Fleet.fp_dropped;
              (if p.Fleet.meets_slo then "yes" else "NO");
            ])
        points;
      Table.print
        ~title:
          (Printf.sprintf
             "SLO capacity frontier (%d requests; TTFT p99 <= %gs, E2E p99 \
              <= %gs)"
             n Fleet.interactive.Fleet.max_ttft_p99_s
             Fleet.interactive.Fleet.max_e2e_p99_s)
        t
    | None ->
      let r = Fleet.run ?node_events ~policy ~requests:n ~seed cfg spec in
      Printf.printf
        "%s: %d dispatched, %d dropped, %s tokens (%s redispatched) in %s \
         simulated\n"
        (Fleet.policy_name policy) Fleet.(r.dispatched) r.Fleet.dropped
        (Units.group_thousands (int_of_float r.Fleet.total_tokens))
        (Units.group_thousands (int_of_float r.Fleet.redispatched_tokens))
        (Units.seconds r.Fleet.makespan_s);
      Printf.printf
        "throughput %s tokens/s; imbalance %.2fx; mean utilization %s\n"
        (Units.group_thousands (int_of_float r.Fleet.throughput_tokens_per_s))
        r.Fleet.imbalance
        (Units.percent r.Fleet.mean_utilization);
      Printf.printf "TTFT p50 %s  p99 %s; E2E p99 %s; queue wait p99 %s\n"
        (Units.seconds (Obs.Sketch.quantile r.Fleet.ttft 0.5))
        (Units.seconds (Obs.Sketch.quantile r.Fleet.ttft 0.99))
        (Units.seconds (Obs.Sketch.quantile r.Fleet.e2e 0.99))
        (Units.seconds (Obs.Sketch.quantile r.Fleet.queue_wait 0.99));
      Printf.printf "peak rack hot %d/%d (cap %d); power-cap overrides %d\n"
        r.Fleet.peak_rack_hot cfg.Fleet.rack_size cfg.Fleet.rack_power_cap
        r.Fleet.power_cap_overrides
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Fleet-scale serving simulation (thousands of nodes, streaming \
          traces, routing policies)")
    Term.(
      const run $ jobs_arg $ nodes $ shards $ n $ policy $ process $ rate
      $ prefill $ decode $ pareto $ users $ seed $ fail $ sweep)

(* --- equivalence ----------------------------------------------------------------- *)

let equivalence_cmd =
  let run () =
    Table.print
      ~title:"How many H100s does one HNLPU replace? (by GPU batching regime)"
      (Scaling.to_table (Scaling.sweep ()));
    let p = Scaling.paper_equivalence in
    Printf.printf
      "\nPaper's TCO normalization (1K/1K concurrency 50): %.0f GPUs, %s of \
       hardware, %.0fx the power.\n"
      p.Scaling.gpus_needed
      (Units.dollars p.Scaling.cluster_price_usd)
      p.Scaling.power_ratio
  in
  Cmd.v
    (Cmd.info "equivalence" ~doc:"GPU-cluster equivalence sweep (§2.1, App. B)")
    Term.(const run $ const ())

(* --- compile ---------------------------------------------------------------------- *)

let compile_cmd =
  let inf = Arg.(value & opt int 256 & info [ "in" ] ~doc:"Input features.") in
  let outf = Arg.(value & opt int 32 & info [ "out" ] ~doc:"Output neurons.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Weight seed.") in
  let show_tcl = Arg.(value & flag & info [ "tcl" ] ~doc:"Print the routing script.") in
  let run inf outf seed show_tcl =
    let g = Gemv.random (Rng.create seed) ~in_features:inf ~out_features:outf ~act_bits:8 in
    let n = Hn_compiler.compile g in
    print_string (Hn_compiler.report n);
    Printf.printf "LVS: %s; DRC: %d violations\n"
      (if Hn_compiler.lvs n g then "clean" else "MISMATCH")
      (List.length (Hn_compiler.drc n));
    if show_tcl then print_string (Hn_compiler.to_tcl n)
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Run the Hardwired-Neuron compiler on a random bank")
    Term.(const run $ inf $ outf $ seed $ show_tcl)

(* --- check ----------------------------------------------------------------------- *)

let check_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON diagnostics.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Also print INFO diagnostics.")
  in
  let fixture =
    Arg.(
      value & opt (some string) None
      & info [ "fixture" ] ~docv:"RULE"
          ~doc:
            "Check the seeded-broken fixture for $(docv) (e.g. ME-TRACK) \
             instead of the reference design; exits nonzero when the rule \
             fires, as it must.")
  in
  let self_test =
    Arg.(
      value & flag
      & info [ "self-test" ]
          ~doc:
            "Run every seeded-violation fixture and verify each rule catches \
             its own violation.")
  in
  let list_rules =
    Arg.(value & flag & info [ "rules" ] ~doc:"List the stable rule IDs and exit.")
  in
  let bundle =
    Arg.(
      value & opt (some string) None
      & info [ "bundle" ] ~docv:"DIR"
          ~doc:
            "Check the user design bundle at $(docv) (manifest, \
             netlists/*.tcl, plans/*.plan, optional schematics and \
             stage_map) instead of the built-in reference.")
  in
  let export_bundle =
    Arg.(
      value & opt (some string) None
      & info [ "export-bundle" ] ~docv:"DIR"
          ~doc:
            "Instead of checking, write the selected design (reference, or \
             a --fixture) as a bundle under $(docv) — a starting template \
             for user bundles and the round-trip smoke test CI runs.")
  in
  let static =
    Arg.(
      value & flag
      & info [ "static" ]
          ~doc:
            "Static-only pre-admission mode: skip the NOC-EXEC value \
             execution and decide from the static passes alone (links, \
             ports, bytes, deadlock, def-use, buffer liveness, determinism \
             lint, budgets).")
  in
  let run json verbose fixture self_test list_rules bundle export_bundle static =
    if verbose then Logs.set_level (Some Logs.Info);
    if list_rules then List.iter print_endline Signoff.rules
    else if self_test then begin
      let failures =
        List.filter
          (fun rule ->
            let ds = Signoff.check (Signoff.fixture rule) in
            let caught =
              Diagnostic.has_rule
                ~min_severity:(Signoff.expected_severity rule)
                rule ds
            in
            Printf.printf "%-12s %s\n" rule (if caught then "caught" else "MISSED");
            not caught)
          Signoff.rules
      in
      if failures <> [] then begin
        Printf.eprintf "self-test: %d rule(s) missed their seeded violation\n"
          (List.length failures);
        exit 1
      end
    end
    else begin
      let design =
        match (bundle, fixture) with
        | Some _, Some _ ->
          Printf.eprintf "--bundle and --fixture are mutually exclusive\n";
          exit 3
        | Some dir, None ->
          (try Bundle.load dir
           with Failure msg ->
             Printf.eprintf "%s\n" msg;
             exit 3)
        | None, Some rule ->
          (try Signoff.fixture rule
           with Invalid_argument msg ->
             Printf.eprintf "%s (try --rules)\n" msg;
             exit 3)
        | None, None -> Signoff.reference ()
      in
      match export_bundle with
      | Some dir ->
        let paths =
          try Bundle.export ~dir design
          with Sys_error msg | Failure msg ->
            Printf.eprintf "%s\n" msg;
            exit 3
        in
        Printf.printf "%d bundle file(s) written under %s\n" (List.length paths) dir
      | None ->
        let ds = Signoff.check ~dynamic:(not static) design in
        if json then print_string (Diagnostic.to_json ds)
        else print_string (Diagnostic.report ~gate:"signoff" ~show_info:verbose ds);
        exit (Diagnostic.exit_code ds)
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Whole-design static signoff: netlist DRC/LVS, NoC schedule \
          execution/makespan cross-checks, static dataflow analyses \
          (deadlock, def-use, buffer liveness, determinism lint), thermal \
          operating point and buffer/budget linting with severity-based \
          exit codes — on the reference design or a user --bundle")
    Term.(
      const run $ json $ verbose $ fixture $ self_test $ list_rules $ bundle
      $ export_bundle $ static)

(* --- lint ------------------------------------------------------------------------ *)

let lint_cmd =
  let module Lint = Hnlpu_lint.Lint in
  let module Baseline = Hnlpu_lint.Baseline in
  let module Lint_config = Hnlpu_lint.Lint_config in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON findings.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ]
          ~doc:"Also print INFO findings (including baselined ones).")
  in
  let baseline_path =
    Arg.(
      value & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Baseline of accepted findings (default: lint.baseline when \
             present).  Matched findings downgrade to INFO with their \
             recorded reason; stale entries surface as LINT-BASELINE \
             warnings.")
  in
  let list_rules =
    Arg.(value & flag & info [ "rules" ] ~doc:"List the rule families and exit.")
  in
  let self_test =
    Arg.(
      value & flag
      & info [ "self-test" ]
          ~doc:
            "Lint the seeded-broken fixtures and verify every rule family \
             catches its own planted bug (and that the clean fixture stays \
             clean).")
  in
  let run json verbose baseline_path list_rules self_test =
    if list_rules then
      List.iter
        (fun r -> Printf.printf "%-12s %s\n" r (Lint_config.describe r))
        Lint_config.rules
    else if self_test then begin
      match Lint.self_test ~dirs:Lint.default_fixture_dirs () with
      | exception Failure msg ->
        prerr_endline ("hnlpu lint: " ^ msg);
        exit 3
      | caught, clean, ds ->
        List.iter
          (fun (rule, hit) ->
            Printf.printf "%-12s %s\n" rule (if hit then "caught" else "MISSED"))
          caught;
        Printf.printf "%-12s %s\n" "CLEAN" (if clean then "caught" else "MISSED");
        let missed = List.filter (fun (_, hit) -> not hit) caught in
        if missed <> [] || not clean then begin
          if verbose then print_string (Diagnostic.report ~gate:"lint" ds);
          Printf.eprintf
            "lint self-test: %d rule families missed their fixture%s\n"
            (List.length missed)
            (if clean then "" else " (and the clean fixture is dirty)");
          exit 1
        end
    end
    else begin
      let baseline_file =
        match baseline_path with
        | Some path when not (Sys.file_exists path) ->
          Printf.eprintf "hnlpu lint: baseline %s not found\n" path;
          exit 3
        | Some path -> Some path
        | None -> if Sys.file_exists "lint.baseline" then Some "lint.baseline" else None
      in
      (* A malformed baseline (a reason left empty or TODO) exits 3 as an
         unbuilt tree does: the gate cannot judge. *)
      match
        let ds = Lint.run ~dirs:Lint.default_scan_dirs ~refs:Lint.default_ref_dirs () in
        match baseline_file with
        | None -> ds
        | Some path -> Diagnostic.normalize (Baseline.apply (Baseline.load path) ds)
      with
      | exception Failure msg ->
        prerr_endline ("hnlpu lint: " ^ msg);
        exit 3
      | ds ->
        if json then print_string (Diagnostic.to_json ds)
        else print_string (Diagnostic.report ~gate:"lint" ~show_info:verbose ds);
        if Diagnostic.count Diagnostic.Error ds > 0 then exit 2
    end
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Source-level static analysis over the compiler's typedtree \
          (.cmt files): hot-path allocation (ALLOC-HOT), nondeterminism \
          sources (DET-SRC), mutable state escaping into parallel tasks \
          (PAR-ESCAPE), swallowed exceptions (EXN-SWALLOW) and unused \
          exports and optional parameters (DEAD-EXPORT), gated by a \
          committed baseline.  Scans the library build tree \
          (_build/default/lib) and judges DEAD-EXPORT against every unit \
          of lib, bin, examples, hnbench and test: build with `dune build \
          @all @check' first.  Exits 2 on unbaselined Error findings, 3 \
          when there is nothing to scan or the baseline is malformed.")
    Term.(
      const run $ json $ verbose $ baseline_path $ list_rules $ self_test)

(* --- speculate ------------------------------------------------------------------- *)

let speculate_cmd =
  let lookahead = Arg.(value & opt int 4 & info [ "lookahead"; "k" ] ~doc:"Draft length.") in
  let acceptance =
    Arg.(value & opt float 0.7 & info [ "acceptance"; "a" ] ~doc:"Assumed acceptance rate.")
  in
  let run lookahead acceptance =
    (* The projection validates [acceptance], so it runs before any output. *)
    let rows = Ablation.speculative_sweep ~acceptance config in
    (* Functional demonstration on the tiny models. *)
    let target = Transformer.create (Weights.random (Rng.create 1) Config.tiny) in
    let draft = Transformer.create (Weights.random (Rng.create 2) Config.tiny_dense) in
    let out, stats =
      Speculative.generate ~target ~draft ~prompt:[ 1; 2; 3 ] ~max_new_tokens:24
        ~lookahead ()
    in
    Printf.printf "tiny demo: %d tokens in %d target passes (%.2f tokens/pass, draft acceptance %s)\n"
      (List.length out) stats.Speculative.target_passes stats.Speculative.tokens_per_pass
      (Units.percent stats.Speculative.acceptance_rate);
    print_newline ();
    let t =
      Table.create ~headers:[ "Lookahead"; "E[tokens/pass]"; "Tokens/s"; "Speedup" ]
    in
    List.iter
      (fun r ->
        Table.add_row t
          [
            string_of_int r.Ablation.lookahead;
            Printf.sprintf "%.2f" r.Ablation.expected_tokens_per_pass;
            Units.group_thousands (int_of_float r.Ablation.spec_tokens_per_s);
            Printf.sprintf "%.2fx" r.Ablation.spec_speedup;
          ])
      rows;
    Table.print
      ~title:
        (Printf.sprintf "Speculative decode on HNLPU (acceptance %.0f%%)"
           (acceptance *. 100.0))
      t
  in
  Cmd.v
    (Cmd.info "speculate" ~doc:"Speculative decoding: demo + throughput projection")
    Term.(const run $ lookahead $ acceptance)

let main =
  Cmd.group
    (Cmd.info "hnlpu" ~version:"1.0.0"
       ~doc:"Hardwired-Neuron LPU (ASPLOS '26) reproduction toolkit")
    [
      tables_cmd; perf_cmd; tco_cmd; nre_cmd; simulate_cmd; generate_cmd;
      neuron_cmd; ablate_cmd; deploy_cmd; signoff_cmd; carbon_cmd; export_cmd;
      slo_cmd; fleet_cmd; equivalence_cmd; compile_cmd; speculate_cmd;
      check_cmd; trace_cmd; lint_cmd;
    ]

let () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning);
  (* Library range checks raise Invalid_argument on bad option values:
     report those as usage errors, not as cmdliner's "internal error". *)
  match Cmd.eval ~catch:false main with
  | code -> exit code
  | exception Invalid_argument msg ->
    prerr_endline ("hnlpu: " ^ msg);
    exit 2
