open Hnlpu_tco
open Hnlpu_util

let m = 1.0e6

let within pct label expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.4g vs paper %.4g" label actual expected)
    true
    (Thelp.within_pct pct ~expected ~actual)

(* --- Table 5: recurring & NRE ------------------------------------------------ *)

let test_wafer_cost () = within 0.5 "wafer/chip" 629.0 (Pricing.wafer_per_chip_usd ())

let test_package_test () =
  let lo, hi = Pricing.range Pricing.package_test_usd in
  within 1.0 "pkg lo" 111.0 lo;
  within 1.0 "pkg hi" 185.0 hi

let test_hbm_cost () =
  let lo, hi = Pricing.range Pricing.hbm_usd in
  within 0.1 "hbm lo" 1920.0 lo;
  within 0.1 "hbm hi" 3840.0 hi

let test_recurring_per_chip () =
  let lo, hi = Pricing.range Pricing.recurring_per_chip_usd in
  within 1.0 "recurring lo" 4560.0 lo;
  within 1.0 "recurring hi" 8454.0 hi

let test_design_totals () =
  let lo, hi = Pricing.range Pricing.design_total_usd in
  within 0.5 "design lo" (26.87 *. m) lo;
  within 0.5 "design hi" (58.54 *. m) hi

let test_initial_build () =
  (* Table 5: 1-HNLPU $59.25M–123.3M, 50-HNLPU $62.83M–129.9M. *)
  within 0.5 "1-HNLPU lo" (59.25 *. m)
    (Cost_breakdown.initial_build_usd Pricing.Optimistic ~systems:1);
  within 0.5 "1-HNLPU hi" (123.3 *. m)
    (Cost_breakdown.initial_build_usd Pricing.Pessimistic ~systems:1);
  within 0.5 "50-HNLPU lo" (62.83 *. m)
    (Cost_breakdown.initial_build_usd Pricing.Optimistic ~systems:50);
  within 0.5 "50-HNLPU hi" (129.9 *. m)
    (Cost_breakdown.initial_build_usd Pricing.Pessimistic ~systems:50)

let test_respin () =
  (* Table 5: 1-HNLPU $18.53M–37.06M, 50-HNLPU $22.11M–43.68M. *)
  within 0.5 "respin 1 lo" (18.53 *. m) (Cost_breakdown.respin_usd Pricing.Optimistic ~systems:1);
  within 0.5 "respin 1 hi" (37.06 *. m) (Cost_breakdown.respin_usd Pricing.Pessimistic ~systems:1);
  within 0.5 "respin 50 lo" (22.11 *. m) (Cost_breakdown.respin_usd Pricing.Optimistic ~systems:50);
  within 0.5 "respin 50 hi" (43.68 *. m) (Cost_breakdown.respin_usd Pricing.Pessimistic ~systems:50)

let test_table5_renders () =
  let s = Table.render (Cost_breakdown.to_table ()) in
  Alcotest.(check bool) "lines present" true
    (Thelp.contains s "Wafer" && Thelp.contains s "Metal-Embedding Mask"
    && Thelp.contains s "Re-spin: 50-HNLPU")

(* --- Table 3 ------------------------------------------------------------------ *)

let low_hnlpu = Tco.hnlpu_column Tco.Low
let low_h100 = Tco.h100_column Tco.Low
let high_hnlpu = Tco.hnlpu_column Tco.High
let high_h100 = Tco.h100_column Tco.High

let test_equivalence () =
  within 8.0 "GPUs per HNLPU (paper rounds to ~2,000)" 2000.0 Tco.equivalence_gpus_per_hnlpu

let test_power_rows () =
  within 4.0 "low HNLPU MW" 0.010 low_hnlpu.Tco.datacenter_power_mw;
  within 0.5 "low H100 MW" 3.64 low_h100.Tco.datacenter_power_mw;
  within 1.0 "high HNLPU MW" 0.483 high_hnlpu.Tco.datacenter_power_mw;
  within 0.5 "high H100 MW" 182.0 high_h100.Tco.datacenter_power_mw

let test_capex_rows () =
  within 1.0 "low HNLPU capex lo" (59.46 *. m) low_hnlpu.Tco.total_capex.Tco.lo;
  within 1.0 "low HNLPU capex hi" (123.5 *. m) low_hnlpu.Tco.total_capex.Tco.hi;
  within 0.5 "low H100 capex" (134.9 *. m) low_h100.Tco.total_capex.Tco.lo;
  within 1.0 "high HNLPU capex lo" (73.13 *. m) high_hnlpu.Tco.total_capex.Tco.lo;
  within 1.0 "high HNLPU capex hi" (140.2 *. m) high_hnlpu.Tco.total_capex.Tco.hi;
  within 0.5 "high H100 capex" (6747.0 *. m) high_h100.Tco.total_capex.Tco.lo

let test_infrastructure_rows () =
  within 3.0 "low HNLPU infra" (0.21 *. m) low_hnlpu.Tco.infrastructure.Tco.lo;
  within 0.5 "low H100 infra" (54.93 *. m) low_h100.Tco.infrastructure.Tco.lo;
  within 1.0 "high HNLPU infra" (10.30 *. m) high_hnlpu.Tco.infrastructure.Tco.lo;
  within 0.5 "high H100 infra" (2747.0 *. m) high_h100.Tco.infrastructure.Tco.lo

let test_opex_rows () =
  within 5.0 "low HNLPU electricity" (0.025 *. m) low_hnlpu.Tco.electricity.Tco.lo;
  within 0.5 "low H100 electricity" (9.088 *. m) low_h100.Tco.electricity.Tco.lo;
  within 1.0 "high HNLPU electricity" (1.206 *. m) high_hnlpu.Tco.electricity.Tco.lo;
  within 0.5 "high H100 electricity" (454.4 *. m) high_h100.Tco.electricity.Tco.lo;
  within 1.0 "low HNLPU maintenance lo" (0.073 *. m) low_hnlpu.Tco.maintenance.Tco.lo;
  within 1.0 "low HNLPU maintenance hi" (0.1353 *. m) low_hnlpu.Tco.maintenance.Tco.hi;
  within 0.5 "low H100 maintenance" (47.24 *. m) low_h100.Tco.maintenance.Tco.lo;
  within 0.5 "high H100 maintenance" (2362.0 *. m) high_h100.Tco.maintenance.Tco.lo

let test_tco_rows () =
  within 1.0 "low static lo" (59.56 *. m) low_hnlpu.Tco.tco_static.Tco.lo;
  within 1.0 "low static hi" (123.7 *. m) low_hnlpu.Tco.tco_static.Tco.hi;
  within 1.0 "low dynamic lo" (96.62 *. m) low_hnlpu.Tco.tco_dynamic.Tco.lo;
  within 1.0 "low dynamic hi" (197.8 *. m) low_hnlpu.Tco.tco_dynamic.Tco.hi;
  within 0.5 "low H100" (191.2 *. m) low_h100.Tco.tco_static.Tco.lo;
  within 1.0 "high dynamic lo" (118.9 *. m) high_hnlpu.Tco.tco_dynamic.Tco.lo;
  within 1.0 "high dynamic hi" (229.4 *. m) high_hnlpu.Tco.tco_dynamic.Tco.hi;
  within 0.5 "high H100" (9563.0 *. m) high_h100.Tco.tco_static.Tco.lo

let test_emissions_rows () =
  within 5.0 "low HNLPU static" 102.0 low_hnlpu.Tco.emissions_static_t;
  within 5.0 "low HNLPU dynamic" 106.0 low_hnlpu.Tco.emissions_dynamic_t;
  within 1.0 "low H100" 36600.0 low_h100.Tco.emissions_static_t;
  within 1.0 "high HNLPU static" 4924.0 high_hnlpu.Tco.emissions_static_t;
  within 1.0 "high HNLPU dynamic" 5124.0 high_hnlpu.Tco.emissions_dynamic_t;
  within 1.0 "high H100" 1830000.0 high_h100.Tco.emissions_static_t

let test_headline_ratios () =
  (* §7.5: TCO 41.7–80.4x, OpEx 1,496–1,793x, CapEx 48.1–92.3x, carbon
     357x/372x at high volume. *)
  let lo, hi = Tco.tco_dynamic_ratio Tco.High in
  within 1.0 "TCO ratio lo" 41.7 lo;
  within 1.0 "TCO ratio hi" 80.4 hi;
  let lo, hi = Tco.opex_ratio Tco.High in
  within 1.0 "OpEx ratio lo" 1496.0 lo;
  within 1.0 "OpEx ratio hi" 1793.0 hi;
  let lo, hi = Tco.capex_ratio Tco.High in
  within 1.0 "CapEx ratio lo" 48.1 lo;
  within 1.0 "CapEx ratio hi" 92.3 hi;
  let dynamic, static = Tco.carbon_ratio Tco.High in
  within 1.0 "carbon dynamic" 357.2 dynamic;
  within 1.0 "carbon static" 371.7 static

let test_low_volume_break_even () =
  (* §7.5: at low volume, even with two re-spins the TCO "remains lower
     than, or breaks even with" the H100 cluster. *)
  Alcotest.(check bool) "optimistic beats H100" true
    (low_hnlpu.Tco.tco_dynamic.Tco.lo < low_h100.Tco.tco_static.Tco.lo);
  Alcotest.(check bool) "pessimistic near break-even" true
    (low_hnlpu.Tco.tco_dynamic.Tco.hi < 1.1 *. low_h100.Tco.tco_static.Tco.lo)

let prop_tco_monotone_in_electricity () =
  (* Not a qcheck property (constants are global): check the structural
     inequality instead — OpEx is strictly positive and dynamic >= static. *)
  List.iter
    (fun (c : Tco.column) ->
      Alcotest.(check bool) "opex positive" true (c.Tco.opex.Tco.lo > 0.0);
      Alcotest.(check bool) "dynamic >= static" true
        (c.Tco.tco_dynamic.Tco.lo >= c.Tco.tco_static.Tco.lo))
    (Tco.table3 ())

let test_table3_renders () =
  let s = Table.render (Tco.to_table ()) in
  Alcotest.(check bool) "rows present" true
    (Thelp.contains s "Total Initial CapEx" && Thelp.contains s "tCO2e")

(* --- Sensitivity -------------------------------------------------------------- *)

let test_sensitivity_baseline () =
  let a = Sensitivity.advantage Sensitivity.baseline in
  (* Midpoint of the 41.7-80.4 band. *)
  Alcotest.(check bool) (Printf.sprintf "baseline %.1fx" a) true (a > 45.0 && a < 70.0)

let test_sensitivity_directions () =
  let adv p = Sensitivity.advantage p in
  let b = Sensitivity.baseline in
  Alcotest.(check bool) "cheaper GPUs shrink the advantage" true
    (adv { b with Sensitivity.gpu_price_scale = 0.5 } < adv b);
  Alcotest.(check bool) "pricier electricity widens it" true
    (adv { b with Sensitivity.electricity_scale = 2.0 } > adv b);
  Alcotest.(check bool) "pricier masks shrink it" true
    (adv { b with Sensitivity.mask_scale = 2.0 } < adv b)

let test_tornado_ordering () =
  let bars = Sensitivity.tornado () in
  Alcotest.(check int) "seven factors" 7 (List.length bars);
  (* Sorted by swing, descending. *)
  let swings = List.map (fun b -> b.Sensitivity.swing) bars in
  Alcotest.(check bool) "sorted" true (List.sort (fun a b -> compare b a) swings = swings);
  (* The verdict must survive every single-factor 2x stress. *)
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "%s keeps advantage > 10x" b.Sensitivity.factor)
        true
        (b.Sensitivity.low_advantage > 10.0 && b.Sensitivity.high_advantage > 10.0))
    bars

let test_tornado_dominant_factors () =
  (* Both TCOs are CapEx-dominated, so the two big levers are the mask-set
     price (most of HNLPU's bill) and the GPU node price (most of the
     cluster's); the energy-side factors barely move the verdict. *)
  let bars = Sensitivity.tornado () in
  let swing name =
    (List.find (fun b -> b.Sensitivity.factor = name) bars).Sensitivity.swing
  in
  Alcotest.(check bool) "masks and GPUs are the top two" true
    (match bars with
    | a :: b :: _ ->
      List.sort compare [ a.Sensitivity.factor; b.Sensitivity.factor ]
      = [ "GPU node price"; "mask-set price" ]
    | _ -> false);
  Alcotest.(check bool) "electricity is a minor factor" true
    (swing "electricity price" < 0.3 *. swing "mask-set price")

let test_tornado_table () =
  let s = Table.render (Sensitivity.to_table (Sensitivity.tornado ())) in
  Alcotest.(check bool) "renders" true (Thelp.contains s "electricity price")

(* --- Deployment ------------------------------------------------------------------------ *)

let test_blue_green_annual () =
  let bg = Deployment.blue_green Deployment.annual_plan in
  Alcotest.(check int) "two re-spins over 3 years" 2 bg.Deployment.total_updates;
  Alcotest.(check (float 1e-9)) "zero downtime" 0.0 bg.Deployment.downtime_weeks;
  let lo, hi = bg.Deployment.respin_bill in
  Alcotest.(check bool) "bill = 2 x Table 5 re-spin" true
    (Thelp.within_pct 1.0 ~expected:(2.0 *. 18.53e6) ~actual:lo
    && Thelp.within_pct 1.0 ~expected:(2.0 *. 37.06e6) ~actual:hi)

let test_blue_green_no_updates () =
  let bg =
    Deployment.blue_green
      { Deployment.annual_plan with Deployment.updates_per_year = 1.0 /. 3.0 }
  in
  Alcotest.(check int) "initial build only" 0 bg.Deployment.total_updates;
  Alcotest.(check (float 1e-9)) "no transitions" 0.0 bg.Deployment.weeks_in_transition

let test_volume_amortization () =
  let points = Deployment.volume_sweep [ 1; 10; 100 ] in
  match points with
  | [ p1; p10; p100 ] ->
    let cost p = snd p.Deployment.usd_per_mtoken in
    Alcotest.(check bool) "cost/token falls with volume" true
      (cost p10 < cost p1 && cost p100 < cost p10);
    Alcotest.(check bool) "H100 benchmark constant" true
      (p1.Deployment.h100_usd_per_mtoken = p100.Deployment.h100_usd_per_mtoken)
  | _ -> Alcotest.fail "expected three points"

let test_crossover_early () =
  (* §7.5: break-even at or near a single node; crossover must come within
     a handful of systems even pessimistically. *)
  match Deployment.crossover_systems () with
  | Some n -> Alcotest.(check bool) (Printf.sprintf "crossover at %d" n) true (n <= 5)
  | None -> Alcotest.fail "no crossover found"

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

let suites =
  [
    ( "table-5",
      [
        Alcotest.test_case "wafer $629" `Quick test_wafer_cost;
        Alcotest.test_case "package & test" `Quick test_package_test;
        Alcotest.test_case "HBM" `Quick test_hbm_cost;
        Alcotest.test_case "recurring per chip" `Quick test_recurring_per_chip;
        Alcotest.test_case "design totals" `Quick test_design_totals;
        Alcotest.test_case "initial build" `Quick test_initial_build;
        Alcotest.test_case "re-spin" `Quick test_respin;
        Alcotest.test_case "renders" `Quick test_table5_renders;
      ] );
    ( "table-3",
      [
        Alcotest.test_case "equivalence 2000 GPUs" `Quick test_equivalence;
        Alcotest.test_case "power rows" `Quick test_power_rows;
        Alcotest.test_case "capex rows" `Quick test_capex_rows;
        Alcotest.test_case "infrastructure rows" `Quick test_infrastructure_rows;
        Alcotest.test_case "opex rows" `Quick test_opex_rows;
        Alcotest.test_case "tco rows" `Quick test_tco_rows;
        Alcotest.test_case "emissions rows" `Quick test_emissions_rows;
        Alcotest.test_case "headline ratios" `Quick test_headline_ratios;
        Alcotest.test_case "low-volume break-even" `Quick test_low_volume_break_even;
        Alcotest.test_case "structural invariants" `Quick prop_tco_monotone_in_electricity;
        Alcotest.test_case "renders" `Quick test_table3_renders;
      ] );
    ( "sensitivity",
      [
        Alcotest.test_case "baseline" `Quick test_sensitivity_baseline;
        Alcotest.test_case "directions" `Quick test_sensitivity_directions;
        Alcotest.test_case "tornado ordering" `Quick test_tornado_ordering;
        Alcotest.test_case "dominant factors" `Quick test_tornado_dominant_factors;
        Alcotest.test_case "table" `Quick test_tornado_table;
      ] );
    ( "deployment",
      [
        Alcotest.test_case "blue-green annual" `Quick test_blue_green_annual;
        Alcotest.test_case "blue-green no updates" `Quick test_blue_green_no_updates;
        Alcotest.test_case "volume amortization" `Quick test_volume_amortization;
        Alcotest.test_case "crossover" `Quick test_crossover_early;
      ] );
    ( "carbon",
      [
        Alcotest.test_case "matches table 3" `Quick test_carbon_matches_table3;
        Alcotest.test_case "mostly operational" `Quick test_carbon_mostly_operational;
        Alcotest.test_case "grid sweep" `Quick test_carbon_grid_sweep;
        Alcotest.test_case "per-token grams" `Quick test_carbon_per_token;
        Alcotest.test_case "cadence insensitive" `Quick test_carbon_cadence_insensitive;
      ] );
  ]
