(* Tests for the §7.1 layout-characteristics models (thermal, ME-layer
   routing), the pipeline trace simulator, the carbon deep dive and
   scheduler fault injection. *)

open Hnlpu

let config = Config.gpt_oss_120b

(* --- Thermal (§7.1) ------------------------------------------------------- *)

let thermal = Thermal.analyze ()

let test_thermal_average () =
  (* Paper: avg 0.3 W/mm² (308 W / 827 mm² = 0.37 computed). *)
  Alcotest.(check bool)
    (Printf.sprintf "avg %.3f W/mm2" thermal.Thermal.average_w_per_mm2)
    true
    (thermal.Thermal.average_w_per_mm2 > 0.25 && thermal.Thermal.average_w_per_mm2 < 0.45)

let test_thermal_peak () =
  (* Paper: peak 1.4 W/mm². *)
  Alcotest.(check bool)
    (Printf.sprintf "peak %.2f W/mm2" thermal.Thermal.peak_w_per_mm2)
    true
    (thermal.Thermal.peak_w_per_mm2 > 1.0 && thermal.Thermal.peak_w_per_mm2 < 1.6)

let test_thermal_within_limits () =
  Alcotest.(check bool) "within 2.5D cooling limits" true thermal.Thermal.within_limits;
  Alcotest.(check bool)
    (Printf.sprintf "junction %.1fC < 105C" thermal.Thermal.junction_temp_c)
    true
    (thermal.Thermal.junction_temp_c < Thermal.max_junction_c)

let test_thermal_hn_array_is_cool () =
  (* §7.1: "The power density of the HN array is significantly lower than
     other components" — the MoE sparsity effect. *)
  let hn =
    List.find
      (fun d -> d.Thermal.thermal_block = "HN Array")
      thermal.Thermal.densities
  in
  let hot = Thermal.hotspot thermal in
  Alcotest.(check bool) "HN array is not the hotspot" true
    (hn.Thermal.density_w_per_mm2 < 0.25 *. hot.Thermal.density_w_per_mm2)

(* --- ME-layer routing (§7.1) -------------------------------------------------- *)

let routing = Routing.analyze config

let test_routing_density () =
  (* Paper: "routing density on ME layers (M8-M11) remains below 70%". *)
  Alcotest.(check bool)
    (Printf.sprintf "utilization %.3f < 0.70" routing.Routing.utilization)
    true routing.Routing.congestion_free

let test_routing_parasitics () =
  (* Paper: avg R = 164 ohm, C = 7.8 fF. *)
  Alcotest.(check bool)
    (Printf.sprintf "R %.0f ~ 164" routing.Routing.avg_resistance_ohm)
    true
    (Thelp.within_pct 2.0 ~expected:164.0 ~actual:routing.Routing.avg_resistance_ohm);
  Alcotest.(check bool)
    (Printf.sprintf "C %.2f ~ 7.8" routing.Routing.avg_capacitance_ff)
    true
    (Thelp.within_pct 2.0 ~expected:7.8 ~actual:routing.Routing.avg_capacitance_ff)

let test_routing_timing_slack () =
  (* "manageable coupling effects": wire delay is thousands of times below
     the 1 ns cycle. *)
  Alcotest.(check bool)
    (Printf.sprintf "delay %.2f ps" routing.Routing.wire_delay_ps)
    true
    (routing.Routing.wire_delay_ps < 10.0)

let test_routing_headroom () =
  (* The 70% ceiling leaves room for somewhat larger per-chip models. *)
  let max_w = Routing.max_embeddable_weights config in
  Alcotest.(check bool) "headroom above current weights" true
    (max_w > routing.Routing.wires)

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

(* --- Carbon deep dive -------------------------------------------------------------- *)

let test_carbon_matches_table3 () =
  let s = Carbon.hnlpu_split Tco.High in
  Alcotest.(check bool) "dynamic total ~ 5,124 t" true
    (Thelp.within_pct 1.0 ~expected:5124.0 ~actual:s.Carbon.total_t);
  let h = Carbon.h100_split Tco.High in
  Alcotest.(check bool) "H100 ~ 1,830,000 t" true
    (Thelp.within_pct 1.0 ~expected:1.83e6 ~actual:h.Carbon.total_t)

let test_carbon_mostly_operational () =
  let s = Carbon.hnlpu_split Tco.High in
  Alcotest.(check bool) "operational dominates" true
    (Carbon.operational_fraction s > 0.85)

let test_carbon_grid_sweep () =
  let sweep = Carbon.grid_sweep [ 0.0; 0.1; 0.38; 0.7 ] in
  Alcotest.(check int) "four points" 4 (List.length sweep);
  List.iter
    (fun (_, hn, gpu) -> Alcotest.(check bool) "H100 always worse" true (gpu > hn))
    sweep;
  let adv_dirty = Carbon.advantage_at_grid ~kgco2e_per_kwh:0.38 () in
  let adv_clean = Carbon.advantage_at_grid ~kgco2e_per_kwh:0.0 () in
  Alcotest.(check bool) "paper's 357x at US grid" true
    (Thelp.within_pct 1.0 ~expected:357.2 ~actual:adv_dirty);
  Alcotest.(check bool) "clean grid leaves embodied ratio ~42x" true
    (adv_clean > 30.0 && adv_clean < 60.0)

let test_carbon_per_token () =
  (* ~7 g CO2e per million tokens at 60% utilization — absurdly low next to
     GPU serving. *)
  let g = Carbon.g_per_million_tokens () in
  Alcotest.(check bool) (Printf.sprintf "%.1f g/Mtok" g) true (g > 1.0 && g < 50.0)

let test_carbon_cadence_insensitive () =
  (* Even quarterly re-spins barely move the footprint. *)
  match Carbon.update_cadence_sweep Tco.High [ 0; 2; 12 ] with
  | [ (_, none); (_, annual); (_, quarterly) ] ->
    Alcotest.(check bool) "monotone" true (none < annual && annual < quarterly);
    Alcotest.(check bool) "quarterly within 1.3x of none" true (quarterly < 1.3 *. none)
  | _ -> Alcotest.fail "expected three points"

(* --- Interconnect traffic ---------------------------------------------------------- *)

let traffic = Traffic.analyze config

let test_traffic_fabric_loaded_not_saturated () =
  let u = traffic.Traffic.mean_link_utilization in
  Alcotest.(check bool) (Printf.sprintf "utilization %.3f" u) true (u > 0.4 && u < 0.95)

let test_traffic_corroborates_calibration () =
  (* The M/M/1 queueing factor implied by measured byte traffic must agree
     with the contention factor calibrated against Figure 14 — two
     independent routes to the same constant. *)
  Alcotest.(check bool)
    (Printf.sprintf "M/M/1 factor %.2f vs calibrated %.2f"
       traffic.Traffic.queueing_factor_mm1 Perf.link_contention_factor)
    true traffic.Traffic.corroborates_calibration

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

let test_traffic_table_renders () =
  Alcotest.(check bool) "renders" true
    (Thelp.contains (Table.render (Traffic.to_table traffic)) "all-reduce")

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

let () =
  Alcotest.run "hnlpu_physical"
    [
      ( "thermal",
        [
          Alcotest.test_case "average density" `Quick test_thermal_average;
          Alcotest.test_case "peak density" `Quick test_thermal_peak;
          Alcotest.test_case "within limits" `Quick test_thermal_within_limits;
          Alcotest.test_case "HN array is cool" `Quick test_thermal_hn_array_is_cool;
        ] );
      ( "routing",
        [
          Alcotest.test_case "density < 70%" `Quick test_routing_density;
          Alcotest.test_case "parasitics 164/7.8" `Quick test_routing_parasitics;
          Alcotest.test_case "timing slack" `Quick test_routing_timing_slack;
          Alcotest.test_case "headroom" `Quick test_routing_headroom;
        ] );
      ( "trace",
        [
          Alcotest.test_case "latency = model" `Quick test_trace_latency_matches_perf;
          Alcotest.test_case "throughput brackets model" `Quick test_trace_throughput_brackets_perf;
          Alcotest.test_case "slot census" `Quick test_trace_slot_census;
          Alcotest.test_case "bottleneck S6" `Quick test_trace_bottleneck_is_moe_allreduce;
          Alcotest.test_case "stage count" `Quick test_trace_stage_count;
        ] );
      ( "carbon",
        [
          Alcotest.test_case "matches table 3" `Quick test_carbon_matches_table3;
          Alcotest.test_case "mostly operational" `Quick test_carbon_mostly_operational;
          Alcotest.test_case "grid sweep" `Quick test_carbon_grid_sweep;
          Alcotest.test_case "per-token grams" `Quick test_carbon_per_token;
          Alcotest.test_case "cadence insensitive" `Quick test_carbon_cadence_insensitive;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "loaded not saturated" `Quick test_traffic_fabric_loaded_not_saturated;
          Alcotest.test_case "corroborates calibration" `Quick test_traffic_corroborates_calibration;
          Alcotest.test_case "MoE dominates bytes" `Quick test_traffic_moe_dominates_bytes;
          Alcotest.test_case "table" `Quick test_traffic_table_renders;
        ] );
      ( "fault-injection",
        [
          Alcotest.test_case "conservation under faults" `Quick test_faults_conserve_tokens;
          Alcotest.test_case "throughput degrades" `Quick test_faults_degrade_throughput;
          Alcotest.test_case "validation" `Quick test_faults_validation;
        ] );
    ]
