open Hnlpu_tco
open Hnlpu_util

(* --- Table 5: recurring & NRE ------------------------------------------------ *)

let test_table5_renders () =
  let s = Thelp.artifact "Table 5" in
  Alcotest.(check bool) "lines present" true
    (Thelp.contains s "Wafer" && Thelp.contains s "Metal-Embedding mask (opt.)"
    && Thelp.contains s "Re-spin, 50 systems (pess.)")

(* --- Table 3 ------------------------------------------------------------------ *)

let low_hnlpu = Tco.hnlpu_column Tco.Low
let low_h100 = Tco.h100_column Tco.Low

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
    (List.concat_map (fun v -> [ Tco.hnlpu_column v; Tco.h100_column v ]) [ Tco.Low; Tco.High ])

let test_table3_renders () =
  let s = Thelp.artifact "Table 3" in
  Alcotest.(check bool) "rows present" true
    (Thelp.contains s "CapEx, HNLPU high (opt.)" && Thelp.contains s "tCO2e, H100 high")

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
  let respin bound = 2.0 *. Hnlpu.Paper.(value (find "Table 5" ("Re-spin, 1 system " ^ bound))) in
  Alcotest.(check bool) "bill = 2 x Table 5 re-spin" true
    (Thelp.within_pct 1.0 ~expected:(respin "(opt.)") ~actual:lo
    && Thelp.within_pct 1.0 ~expected:(respin "(pess.)") ~actual:hi)

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

(* A measurement of another path against a Table 3 record's tolerance. *)
let table3 row x = Hnlpu.Paper.(within (find "Table 3" row) x)

let test_carbon_matches_table3 () =
  let s = Carbon.hnlpu_split Tco.High in
  Alcotest.(check bool) "dynamic total ~ Table 3" true
    (table3 "tCO2e, HNLPU high (dynamic)" s.Carbon.total_t);
  let h = Carbon.h100_split Tco.High in
  Alcotest.(check bool) "H100 ~ Table 3" true (table3 "tCO2e, H100 high" h.Carbon.total_t)

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
    (table3 "Advantage, carbon high (dynamic)" adv_dirty);
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
        Alcotest.test_case "wafer $629" `Quick (Thelp.paper "Table 5" "Wafer");
        Alcotest.test_case "package & test" `Quick (Thelp.paper "Table 5" "Package & Test (opt.)");
        Alcotest.test_case "HBM" `Quick (Thelp.paper "Table 5" "HBM (opt.)");
        Alcotest.test_case "recurring per chip" `Quick (Thelp.paper "Table 5" "Recurring per chip (opt.)");
        Alcotest.test_case "design totals" `Quick (Thelp.paper "Table 5" "Design total (opt.)");
        Alcotest.test_case "initial build" `Quick (Thelp.paper "Table 5" "Initial build, 1 system (opt.)");
        Alcotest.test_case "re-spin" `Quick (Thelp.paper "Table 5" "Re-spin, 1 system (opt.)");
        Alcotest.test_case "renders" `Quick test_table5_renders;
      ] );
    ( "table-3",
      [
        Alcotest.test_case "equivalence 2000 GPUs" `Quick (Thelp.paper "Table 3" "H100 GPUs per HNLPU");
        Alcotest.test_case "power rows" `Quick (Thelp.paper "Table 3" "Power, HNLPU low");
        Alcotest.test_case "capex rows" `Quick (Thelp.paper "Table 3" "CapEx, HNLPU low (opt.)");
        Alcotest.test_case "infrastructure rows" `Quick (Thelp.paper "Table 3" "Infrastructure, HNLPU low");
        Alcotest.test_case "opex rows" `Quick (Thelp.paper "Table 3" "OpEx electricity, HNLPU low");
        Alcotest.test_case "tco rows" `Quick (Thelp.paper "Table 3" "TCO static, HNLPU low (opt.)");
        Alcotest.test_case "emissions rows" `Quick (Thelp.paper "Table 3" "tCO2e, HNLPU low (static)");
        Alcotest.test_case "headline ratios" `Quick (Thelp.paper "Table 3" "Advantage, TCO high (opt.)");
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
