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
  within 1.0 "carbon dynamic" 357.2 (Tco.carbon_ratio Tco.High);
  within 1.0 "carbon static" 371.7 (Tco.carbon_ratio ~dynamic:false Tco.High)

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

let () =
  Alcotest.run "hnlpu_tco"
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
    ]
