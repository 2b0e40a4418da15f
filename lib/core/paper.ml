open Hnlpu_util

type tolerance = Rel of float | Pp of float | Band of float * float | Below of float

type fit = {
  constant : string;
  value : float;
  unit_ : string;
  anchor : string;
  derived_fraction_note : string;
}

type origin = Derived | Fitted of fit

type paper = Value of float | Text of string

type measure = Plain of (unit -> float) | Neuron of (Hnlpu_neuron.Report.t list -> float)

type t = {
  artifact : string;
  row : string;
  paper : paper;
  show : float -> string;
  tolerance : tolerance;
  origin : origin;
  measure : measure;
}

let config = Hnlpu_model.Config.gpt_oss_120b

let neuron_reports ?(seed = 20260706) () =
  let open Hnlpu_neuron in
  let bank = Bank.of_gemv (Gemv.paper_benchmark (Rng.create seed)) in
  [ Mac_array.ppa bank; Cell_embedding.ppa bank; Metal_embedding.ppa bank ]

(* --- Renderers ------------------------------------------------------------ *)

let fixed digits suffix x = Printf.sprintf "%.*f%s" digits x suffix
let grouped suffix x = Units.grouped x ^ suffix
let usd x = "$" ^ grouped "" x
let musd x = "$" ^ Units.dollars_m x

(* --- The paper's values that calibrated-constant anchors quote ------------- *)

let hn_area_mm2 = 573.16
let hn_power_w = 76.92
let buffer_area_mm2 = 136.11
let buffer_power_w = 85.73

(* Figure 14, read off the plot: context, then the CXL-communication,
   projection, attention and stall shares in %; non-linear is the
   remainder. *)
let figure14_paper =
  [
    (2048, 82.9, 13.8, 0.55, 0.0);
    (8192, 81.5, 13.6, 2.2, 0.0);
    (65536, 70.8, 11.8, 15.1, 0.0);
    (131072, 61.5, 10.2, 26.2, 0.0);
    (262144, 48.7, 8.1, 41.6, 0.0);
    (524288, 30.7, 5.1, 52.4, 10.7);
  ]

let attention_64k =
  let _, _, _, attention, _ = List.find (fun (c, _, _, _, _) -> c = 65536) figure14_paper in
  attention

(* --- The calibrated constants, in dependency order -------------------------- *)

let fit constant value unit_ anchor derived_fraction_note =
  { constant; value; unit_; anchor; derived_fraction_note }

let popcount_ports =
  fit "Census.popcount_port_transistors"
    (float_of_int Hnlpu_gates.Census.popcount_port_transistors) "transistors/port"
    (Printf.sprintf "Fig. 12 ME area ratio; Table 1 HN array %.0f mm2" hn_area_mm2)
    "static-CMOS FA would be 28 T; compact counter cells + slice sharing fitted"

let transistors_per_weight =
  fit "Hn_array.transistors_per_weight" Hnlpu_chip.Hn_array.transistors_per_weight
    "transistors/weight" "Table 1 HN array area"
    "port cost derived; +1.3 amortized neuron overhead fitted"

let active_site_energy =
  fit "Hn_array.active_site_fj_per_cycle" 0.254 "fJ/site/cycle"
    (Printf.sprintf "Table 1 HN array %g W" hn_power_w)
    "active-site census derived; energy coefficient fitted"

let link_contention =
  fit "Perf.link_contention_factor" Hnlpu_system.Perf.link_contention_factor "x"
    "Fig. 14 comm shares; Table 2 throughput"
    "consistent with Traffic's M/M/1 factor at 71% fabric load, not independent of it: the \
     load comes from Perf's throughput, which already contains 4.17"

let attention_efficiency =
  fit "Vex.attention_efficiency" Hnlpu_chip.Vex.attention_efficiency "fraction of 32 lanes"
    (Printf.sprintf "Fig. 14 attention share (%g%% at 64K)" attention_64k)
    "lane count from the paper; sustained efficiency fitted"

let hbm_bandwidth =
  fit "Hbm.effective_bandwidth" Hnlpu_chip.Hbm.hnlpu.Hnlpu_chip.Hbm.effective_bandwidth_bytes_per_s
    "B/s" "Fig. 14 stall onset between 256K and 512K" "within the physical 2..8-stack HBM3 band"

let bank_efficiency =
  fit "Attention_buffer.bank_efficiency" 0.41 "fraction"
    (Printf.sprintf "Table 1 buffer %g mm2" buffer_area_mm2)
    "bitcell area public; macro efficiency fitted"

let buffer_dynamic =
  fit "Floorplan.buffer_dynamic_w" 81.89 "W" (Printf.sprintf "Table 1 buffer %g W" buffer_power_w)
    "leakage derived (3.8 W); bank-fabric dynamic power adopted"

let h100_license =
  fit "Pricing.h100_license_usd_per_gpu_per_year" Hnlpu_tco.Pricing.h100_license_usd_per_gpu_per_year
    "$/GPU/yr" "Table 3 maintenance rows (both volumes)"
    "back-solved exactly; consistent with NVAIE pricing"

let fits =
  [
    popcount_ports; transistors_per_weight; active_site_energy; link_contention;
    attention_efficiency; hbm_bandwidth; bank_efficiency; buffer_dynamic; h100_license;
  ]

(* --- The records ----------------------------------------------------------- *)

let record ?(origin = Derived) artifact row paper show tolerance measure =
  { artifact; row; paper; show; tolerance; origin; measure }

(* Most records quote a number within a relative tolerance. *)
let rel ?origin artifact row paper pct show measure =
  record ?origin artifact row (Value paper) show (Rel pct) (Plain measure)

let figure2 =
  let open Hnlpu_litho.Strawman in
  let straw f () = f (estimate config) in
  let a = "Figure 2" in
  [
    rel a "GPU cost per unit" 780.0 1.0 usd
      (fun () -> (gpu_economics ()).cost_per_unit_usd);
    rel a "Straw-man CMAC area" 176_000.0 2.0 (grouped " mm2") (straw (fun s -> s.area_mm2));
    record a "Straw-man chips" (Text "200+") (fixed 0 "") (Band (200.0, 230.0))
      (Plain (straw (fun s -> float_of_int s.chips)));
    record a "Straw-man mask bill" (Text "~$6 B") (fun b -> Printf.sprintf "$%.2f B" b)
      (Band (6.0, 7.0))
      (Plain (straw (fun s -> s.mask_cost_usd /. 1e9)));
  ]

let figure12 =
  let ratio i =
    Neuron
      (fun reports ->
        Hnlpu_neuron.Report.area_ratio (List.nth reports i) ~baseline:(List.hd reports))
  in
  let a = "Figure 12" in
  [
    record a "MAC array (MA)" (Value 1.0) (fixed 2 "x") (Rel 0.0) (ratio 0);
    record a "Cell-Embedding (CE)" (Value 14.3) (fixed 1 "x") (Band (8.0, 30.0)) (ratio 1);
    record ~origin:(Fitted popcount_ports) a "Metal-Embedding (ME)" (Value 0.95) (fixed 2 "x")
      (Band (0.4, 1.6)) (ratio 2);
  ]

let figure13 =
  let report i f = Neuron (fun reports -> f (List.nth reports i)) in
  let cycles i = report i (fun r -> float_of_int r.Hnlpu_neuron.Report.cycles) in
  let nj i = report i (fun r -> Hnlpu_neuron.Report.energy_j Hnlpu_gates.Tech.n5 r *. 1e9) in
  let a = "Figure 13" in
  [
    record a "MA cycles" (Text "~150") (fixed 0 "") (Band (120.0, 180.0)) (cycles 0);
    record a "CE cycles" (Text "few") (fixed 0 "") (Below 10.0) (cycles 1);
    record a "ME cycles" (Text "~10") (fixed 0 "") (Below 20.0) (cycles 2);
    record a "MA energy" (Text "~10 nJ") (fixed 2 " nJ") (Band (2.0, 50.0)) (nj 0);
    record a "CE energy" (Text "~1-3 nJ") (fixed 2 " nJ") (Band (1.0, 3.0)) (nj 1);
    record a "ME energy" (Text "sub-nJ") (fixed 2 " nJ") (Band (0.05, 2.0)) (nj 2);
  ]

let table1 =
  let open Hnlpu_chip in
  let fp f () = f (Floorplan.table1 ()) in
  let mm2 = fixed 2 " mm2" and w = fixed 2 " W" in
  let a = "Table 1" in
  [
    rel ~origin:(Fitted transistors_per_weight) a "HN Array area" hn_area_mm2 2.0 mm2
      (fun () -> Hn_array.area_mm2 config);
    rel ~origin:(Fitted active_site_energy) a "HN Array power" hn_power_w 2.0 w
      (fun () -> Hn_array.power_w config);
    rel ~origin:(Fitted bank_efficiency) a "Attention Buffer area" buffer_area_mm2 3.0 mm2
      (fun () -> Attention_buffer.area_mm2 Attention_buffer.hnlpu);
    rel ~origin:(Fitted buffer_dynamic) a "Attention Buffer power" buffer_power_w 3.0 w
      (fp (fun t ->
           (List.find (fun b -> b.Floorplan.block_name = "Attention Buffer") t.Floorplan.blocks)
             .Floorplan.power_w));
    rel a "Interconnect Engine power" 49.65 3.0 w (fun () -> Interconnect_engine.power_w);
    rel a "Total area" 827.08 1.0 mm2 (fp (fun t -> t.Floorplan.total_area_mm2));
    rel a "Total power" 308.39 1.0 w (fp (fun t -> t.Floorplan.total_power_w));
    rel a "HN Array share of area" 69.3 2.0 (fixed 1 "%")
      (fp (fun t -> 100.0 *. Floorplan.area_share t "HN Array"));
  ]

let table2 =
  let open Hnlpu_baseline.Compare in
  let hn f () = f (hnlpu ()) in
  let vs ratio other () = ratio (hnlpu ()) ~over:(other ()) in
  let wse3 () = List.nth (table2 ()) 2 in
  let a = "Table 2" in
  [
    rel ~origin:(Fitted link_contention) a "HNLPU throughput" 249_960.0 1.0 (grouped " tok/s")
      (hn (fun s -> s.throughput_tokens_per_s));
    rel a "HNLPU silicon" 13_232.0 1.0 (grouped " mm2") (hn (fun s -> s.silicon_mm2));
    rel a "HNLPU power" 6.9 1.0 (fixed 2 " kW") (hn (fun s -> s.system_power_w /. 1e3));
    rel a "HNLPU energy efficiency" 36_226.0 1.0 (grouped " tok/kJ") (hn (fun s -> s.tokens_per_kj));
    rel a "HNLPU area efficiency" 18.89 1.0 (fixed 2 " tok/(s.mm2)")
      (hn (fun s -> s.tokens_per_s_mm2));
    rel a "H100 energy efficiency" 34.6 1.0 (fixed 1 " tok/kJ") (fun () ->
        Hnlpu_baseline.H100.tokens_per_kj);
    rel a "WSE-3 energy efficiency" 127.8 1.0 (fixed 1 " tok/kJ") (fun () ->
        Hnlpu_baseline.Wse3.tokens_per_kj);
    rel a "WSE-3 area efficiency" 0.064 2.0 (fixed 3 " tok/(s.mm2)") (fun () ->
        Hnlpu_baseline.Wse3.area_efficiency);
    rel a "Throughput vs H100" 5555.0 1.0 (grouped "x") (vs throughput_ratio h100);
    rel a "Efficiency vs H100" 1047.0 1.0 (grouped "x") (vs efficiency_ratio h100);
    rel a "Throughput vs WSE-3" 85.0 1.0 (grouped "x") (vs throughput_ratio wse3);
    rel a "Efficiency vs WSE-3" 283.0 1.0 (grouped "x") (vs efficiency_ratio wse3);
  ]

let figure14 =
  let open Hnlpu_system in
  let share context f () = 100.0 *. f (Perf.fractions (Perf.token_breakdown config ~context)) in
  List.concat_map
    (fun (context, comm, projection, attention, stall) ->
      let cell ?origin name paper f =
        record ?origin "Figure 14"
          (Printf.sprintf "%dK %s" (context / 1024) name)
          (Value paper) (fixed 1 "") (Pp 3.0) (Plain (share context f))
      in
      (* The attention efficiency is fitted at 64K, the HBM bandwidth to
         the stall at 512K. *)
      let fitted_at c f = if context = c then Some (Fitted f) else None in
      [
        cell "CXL comm" comm (fun b -> b.Perf.comm_s);
        cell "projection" projection (fun b -> b.Perf.projection_s);
        cell "non-linear" (100.0 -. comm -. projection -. attention -. stall)
          (fun b -> b.Perf.nonlinear_s);
        cell ?origin:(fitted_at 65536 attention_efficiency) "attention" attention
          (fun b -> b.Perf.attention_s);
        cell ?origin:(fitted_at 524288 hbm_bandwidth) "stall" stall (fun b -> b.Perf.stall_s);
      ])
    figure14_paper

let table3 =
  let open Hnlpu_tco.Tco in
  let a = "Table 3" in
  let hl () = hnlpu_column Low and gl () = h100_column Low in
  let hh () = hnlpu_column High and gh () = h100_column High in
  (* Each helper yields a list: one row, or a row per price bound. *)
  let row name paper pct show f = [ rel a name paper pct show f ] in
  let line name paper pct col f = row name paper pct musd (fun () -> (f (col ())).lo) in
  let bounds name (opt, pess) pct col f =
    line (name ^ " (opt.)") opt pct col f @ row (name ^ " (pess.)") pess pct musd (fun () -> (f (col ())).hi)
  in
  let ratio name (opt, pess) show f =
    row (name ^ " (opt.)") opt 1.0 show (fun () -> fst (f High))
    @ row (name ^ " (pess.)") pess 1.0 show (fun () -> snd (f High))
  in
  let t = fixed 1 " t" and x = fixed 1 "x" and mw d = fixed d " MW" in
  List.concat
    [
      row "H100 GPUs per HNLPU" 2000.0 8.0 (grouped "") (fun () -> equivalence_gpus_per_hnlpu);
      row "Power, HNLPU low" 0.010 4.0 (mw 3) (fun () -> (hl ()).datacenter_power_mw);
      row "Power, H100 low" 3.64 0.5 (mw 2) (fun () -> (gl ()).datacenter_power_mw);
      row "Power, HNLPU high" 0.483 1.0 (mw 3) (fun () -> (hh ()).datacenter_power_mw);
      row "Power, H100 high" 182.0 0.5 (mw 1) (fun () -> (gh ()).datacenter_power_mw);
      bounds "CapEx, HNLPU low" (59.46e6, 123.5e6) 1.0 hl (fun c -> c.total_capex);
      line "CapEx, H100 low" 134.9e6 0.5 gl (fun c -> c.total_capex);
      bounds "CapEx, HNLPU high" (73.13e6, 140.2e6) 1.0 hh (fun c -> c.total_capex);
      line "CapEx, H100 high" 6747.0e6 0.5 gh (fun c -> c.total_capex);
      line "Infrastructure, HNLPU low" 0.21e6 3.0 hl (fun c -> c.infrastructure);
      line "Infrastructure, H100 low" 54.93e6 0.5 gl (fun c -> c.infrastructure);
      line "Infrastructure, HNLPU high" 10.30e6 1.0 hh (fun c -> c.infrastructure);
      line "Infrastructure, H100 high" 2747.0e6 0.5 gh (fun c -> c.infrastructure);
      line "OpEx electricity, HNLPU low" 0.025e6 5.0 hl (fun c -> c.electricity);
      line "OpEx electricity, H100 low" 9.088e6 0.5 gl (fun c -> c.electricity);
      line "OpEx electricity, HNLPU high" 1.206e6 1.0 hh (fun c -> c.electricity);
      line "OpEx electricity, H100 high" 454.4e6 0.5 gh (fun c -> c.electricity);
      bounds "OpEx maintenance, HNLPU low" (0.073e6, 0.1353e6) 1.0 hl (fun c -> c.maintenance);
      [
        rel ~origin:(Fitted h100_license) a "OpEx maintenance, H100 low" 47.24e6 0.5 musd
          (fun () -> (gl ()).maintenance.lo);
      ];
      line "OpEx maintenance, H100 high" 2362.0e6 0.5 gh (fun c -> c.maintenance);
      bounds "TCO static, HNLPU low" (59.56e6, 123.7e6) 1.0 hl (fun c -> c.tco_static);
      bounds "TCO dynamic, HNLPU low" (96.62e6, 197.8e6) 1.0 hl (fun c -> c.tco_dynamic);
      line "TCO, H100 low" 191.2e6 0.5 gl (fun c -> c.tco_static);
      bounds "TCO dynamic, HNLPU high" (118.9e6, 229.4e6) 1.0 hh (fun c -> c.tco_dynamic);
      line "TCO, H100 high" 9563.0e6 0.5 gh (fun c -> c.tco_static);
      row "tCO2e, HNLPU low (static)" 102.0 5.0 t (fun () -> (hl ()).emissions_static_t);
      row "tCO2e, HNLPU low (dynamic)" 106.0 5.0 t (fun () -> (hl ()).emissions_dynamic_t);
      row "tCO2e, H100 low" 36_600.0 1.0 t (fun () -> (gl ()).emissions_static_t);
      row "tCO2e, HNLPU high (static)" 4924.0 1.0 t (fun () -> (hh ()).emissions_static_t);
      row "tCO2e, HNLPU high (dynamic)" 5124.0 1.0 t (fun () -> (hh ()).emissions_dynamic_t);
      row "tCO2e, H100 high" 1_830_000.0 1.0 t (fun () -> (gh ()).emissions_static_t);
      ratio "Advantage, TCO high" (41.7, 80.4) x tco_dynamic_ratio;
      ratio "Advantage, OpEx high" (1496.0, 1793.0) (grouped "x") opex_ratio;
      ratio "Advantage, CapEx high" (48.1, 92.3) x capex_ratio;
      (* [carbon_ratio] is (dynamic, static). *)
      row "Advantage, carbon high (dynamic)" 357.2 1.0 x (fun () -> fst (carbon_ratio High));
      row "Advantage, carbon high (static)" 371.7 1.0 x (fun () -> snd (carbon_ratio High));
    ]

let table4 =
  List.map
    (fun (c, paper) ->
      rel "Table 4" c.Hnlpu_model.Config.name paper 2.0 musd (fun () ->
          (Hnlpu_litho.Model_nre.row c).Hnlpu_litho.Model_nre.nre_usd))
    (* Kimi-K2, DeepSeek-V3, QwQ, Llama-3. *)
    (List.combine Hnlpu_model.Config.table4_models [ 462.0e6; 353.0e6; 69.0e6; 38.0e6 ])

let table5 =
  let open Hnlpu_tco in
  let a = "Table 5" in
  let both name (opt, pess) pct show f =
    [
      rel a (name ^ " (opt.)") opt pct show (fun () -> f Pricing.Optimistic);
      rel a (name ^ " (pess.)") pess pct show (fun () -> f Pricing.Pessimistic);
    ]
  in
  let mask f b = f (Pricing.anchor b) in
  List.concat
    [
      [ rel a "Wafer" 629.0 0.5 usd (fun () -> Pricing.wafer_per_chip_usd ()) ];
      both "Package & Test" (111.0, 185.0) 1.0 usd Pricing.package_test_usd;
      both "HBM" (1920.0, 3840.0) 0.1 usd Pricing.hbm_usd;
      both "Recurring per chip" (4560.0, 8454.0) 1.0 usd Pricing.recurring_per_chip_usd;
      both "Design total" (26.87e6, 58.54e6) 0.5 musd Pricing.design_total_usd;
      both "Homogeneous mask" (13.85e6, 27.69e6) 0.5 musd
        (mask Hnlpu_litho.Mask_cost.homogeneous_cost);
      both "Metal-Embedding mask" (18.46e6, 36.92e6) 1.0 musd
        (mask (Hnlpu_litho.Mask_cost.sea_of_neurons_respin ~chips:Cost_breakdown.chips_per_system));
      both "Initial build, 1 system" (59.25e6, 123.3e6) 0.5 musd
        (Cost_breakdown.initial_build_usd ~systems:1);
      both "Initial build, 50 systems" (62.83e6, 129.9e6) 0.5 musd
        (Cost_breakdown.initial_build_usd ~systems:50);
      both "Re-spin, 1 system" (18.53e6, 37.06e6) 0.5 musd (Cost_breakdown.respin_usd ~systems:1);
      both "Re-spin, 50 systems" (22.11e6, 43.68e6) 0.5 musd (Cost_breakdown.respin_usd ~systems:50);
    ]

(* Numbers the paper states in its text rather than its tables. *)
let side_claims =
  let open Hnlpu_litho in
  let a = "Side claims" in
  let pess = Mask_cost.Pessimistic and tech = Hnlpu_gates.Tech.n5 in
  let die = Hnlpu_chip.Package.hnlpu.Hnlpu_chip.Package.die_mm2 in
  let routing f () = f (Routing.analyze config) in
  let pct f () = 100.0 *. f () and count f () = float_of_int (f ()) in
  let exact row paper f = rel a row paper 0.0 (fixed 0 "") (count f) in
  [
    rel a "§3.2 initial mask saving, 16 chips" 86.5 0.5 (fixed 1 "%")
      (pct (fun () -> Mask_cost.initial_saving_fraction pess ~chips:16));
    rel a "§3.2 re-spin mask saving, 16 chips" 92.3 0.5 (fixed 1 "%")
      (pct (fun () -> Mask_cost.respin_saving_fraction pess ~chips:16));
    rel a "§3.2 initial masks, 16 chips" 64.6e6 1.0 musd (fun () ->
        Mask_cost.sea_of_neurons_initial pess ~chips:16);
    rel a "§3.2 re-spin masks, 16 chips" 36.9e6 1.0 musd (fun () ->
        Mask_cost.sea_of_neurons_respin pess ~chips:16);
    rel a "App. B ME masks per chip (opt.)" 1.15e6 1.0 musd (fun () ->
        Mask_cost.embedding_cost_per_chip Mask_cost.Optimistic);
    rel a "App. B ME masks per chip (pess.)" 2.31e6 0.5 musd (fun () ->
        Mask_cost.embedding_cost_per_chip pess);
    rel a "App. B weight bytes per chip" 3.61e9 1.0
      (fun b -> Printf.sprintf "%.2f GB" (b /. 1e9))
      (fun () -> Model_nre.per_chip_weight_bytes);
    rel a "§4.3 attention-buffer capacity" 320.0 3.0 (fixed 0 " MB") (fun () ->
        float_of_int (Hnlpu_chip.Attention_buffer.(capacity_bytes hnlpu)) /. 1e6);
    record a "§5.1 router share of weights" (Text "~0.01%") (fixed 4 "%") (Band (0.005, 0.02))
      (Plain (pct (fun () -> Hnlpu_model.Params.router_fraction config)));
    exact "§5.2 batch ceiling (pipeline slots)" 216.0 (fun () ->
        Hnlpu_system.Perf.pipeline_slots config);
    rel a "§7.1 Murphy yield" 43.0 2.0 (fixed 1 "%")
      (pct (fun () ->
           Hnlpu_gates.Yield.murphy ~defect_density_per_cm2:tech.defect_density_per_cm2
             ~die_area_mm2:die));
    exact "§7.1 gross dies per wafer" 62.0 (fun () ->
        Hnlpu_gates.Yield.gross_dies_per_wafer ~wafer_diameter_mm:tech.wafer_diameter_mm
          ~die_area_mm2:die);
    exact "§7.1 good dies per wafer" 27.0 (fun () ->
        Hnlpu_gates.Yield.good_dies_per_wafer tech ~die_area_mm2:die);
    record a "§7.1 ME routing density (M8-M11)" (Text "<70%") (fixed 1 "%") (Below 70.0)
      (Plain (routing (fun r -> 100.0 *. r.utilization)));
    rel a "§7.1 wire resistance" 164.0 2.0 (fixed 0 " ohm") (routing (fun r -> r.avg_resistance_ohm));
    rel a "§7.1 wire capacitance" 7.8 2.0 (fixed 2 " fF") (routing (fun r -> r.avg_capacitance_ff));
    rel a "§7.1 attention-buffer bandwidth" 80.0 1.0 (fixed 1 " TB/s") (fun () ->
        Hnlpu_chip.Attention_buffer.(bandwidth_bytes_per_s hnlpu) /. 1e12);
    record a "§7.1 average power density" (Text "~0.3 W/mm2") (fixed 3 " W/mm2")
      (Band (0.2, 0.5))
      (Plain (fun () -> Hnlpu_chip.Floorplan.(power_density_w_per_mm2 (table1 ()))));
    record a "§7.1 peak power density" (Value 1.4) (fixed 2 " W/mm2") (Band (1.0, 1.6))
      (Plain (fun () -> (Hnlpu_chip.Thermal.analyze ()).peak_w_per_mm2));
    record a "§7.1 active share of HN weights" (Text "~4%") (fixed 1 "%") (Band (2.0, 6.0))
      (Plain (pct (fun () -> Hnlpu_chip.Hn_array.active_fraction config)));
  ]

let all =
  List.concat
    [ figure2; figure12; figure13; table1; table2; figure14; table3; table4; table5; side_claims ]

let find artifact row = List.find (fun r -> r.artifact = artifact && r.row = row) all

let value r =
  match r.paper with
  | Value v -> v
  | Text s -> invalid_arg (Printf.sprintf "Paper.value: %s %s prints %S" r.artifact r.row s)

let printed r = match r.paper with Value v -> r.show v | Text s -> s

(* The reports live for this call only: a cache that outlived it would be
   shared by the pool's domains. *)
let measures ?reports records =
  let reports =
    match reports with Some r -> Lazy.from_val r | None -> lazy (neuron_reports ())
  in
  List.map
    (fun r -> match r.measure with Plain f -> f () | Neuron f -> f (Lazy.force reports))
    records

let within r x =
  match r.tolerance with
  | Rel pct ->
    let p = value r in
    Float.abs (x -. p) <= pct /. 100.0 *. Float.abs p
  | Pp pp -> Float.abs (x -. value r) <= pp
  | Band (lo, hi) -> lo < x && x < hi
  | Below b -> x < b
