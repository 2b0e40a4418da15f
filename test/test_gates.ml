open Hnlpu
open Hnlpu_gates

let tech = Tech.n5

(* --- Yield: the paper's §7.1 / Appendix B numbers --------------------- *)

let test_murphy_yield_paper () =
  (* 827 mm² die, D0 = 0.11/cm² -> "43% yield". *)
  let y = Yield.murphy ~defect_density_per_cm2:0.11 ~die_area_mm2:827.08 in
  Alcotest.(check bool)
    (Printf.sprintf "yield %.3f ~ 0.43" y)
    true
    (Thelp.within_pct 2.0 ~expected:0.43 ~actual:y)

let test_gross_dies_paper () =
  (* "~27 of 62 dies". *)
  Alcotest.(check int) "62 gross dies" 62
    (Yield.gross_dies_per_wafer ~wafer_diameter_mm:300.0 ~die_area_mm2:827.08)

let test_good_dies_paper () =
  Alcotest.(check int) "27 good dies" 27 (Yield.good_dies_per_wafer tech ~die_area_mm2:827.08)

let test_die_cost_paper () =
  (* "$629 per good die". *)
  let c = Yield.cost_per_good_die tech ~die_area_mm2:827.08 in
  Alcotest.(check bool) (Printf.sprintf "die cost %.0f ~ 629" c) true
    (Thelp.within_pct 0.5 ~expected:629.0 ~actual:c)

let test_yield_monotone_in_area () =
  let y1 = Yield.murphy ~defect_density_per_cm2:0.11 ~die_area_mm2:100.0 in
  let y2 = Yield.murphy ~defect_density_per_cm2:0.11 ~die_area_mm2:800.0 in
  Alcotest.(check bool) "bigger die, lower yield" true (y1 > y2)

let test_yield_perfect_process () =
  let y = Yield.murphy ~defect_density_per_cm2:0.0 ~die_area_mm2:800.0 in
  Alcotest.(check (float 1e-9)) "D0=0 gives yield 1" 1.0 y

let test_wafers_for () =
  (* 16 chips at 27 good dies/wafer -> 1 wafer; 50 systems x 16 = 800 -> 30. *)
  Alcotest.(check int) "one system" 1 (Yield.wafers_for tech ~die_area_mm2:827.08 ~dies:16);
  Alcotest.(check int) "fifty systems" 30
    (Yield.wafers_for tech ~die_area_mm2:827.08 ~dies:800)

let prop_yield_bounds =
  QCheck.Test.make ~name:"Murphy yield in (0,1]" ~count:200
    QCheck.(pair (float_range 0.0 1.0) (float_range 1.0 2000.0))
    (fun (d0, a) ->
      let y = Yield.murphy ~defect_density_per_cm2:d0 ~die_area_mm2:a in
      y > 0.0 && y <= 1.0)

(* --- Census ----------------------------------------------------------- *)

let test_census_primitives () =
  Alcotest.(check int) "full adder 28T" 28 Census.full_adder;
  Alcotest.(check int) "ripple 8b" (8 * 28) (Census.ripple_adder 8)

let test_cmac_power_of_two_free () =
  (* x1, x2, x4 and x0.5 are pure wiring. *)
  List.iter
    (fun v ->
      let c = Census.fp4_constant_multiplier ~input_bits:8 (Hnlpu_fp4.Fp4.of_float v) in
      Alcotest.(check int) (Printf.sprintf "x%g free" v) 0 c)
    [ 0.0; 0.5; 1.0; 2.0; 4.0 ]

let test_cmac_mantissa_costs_adder () =
  let c3 = Census.fp4_constant_multiplier ~input_bits:8 (Hnlpu_fp4.Fp4.of_float 3.0) in
  Alcotest.(check bool) "x3 needs an adder" true (c3 > 0)

let test_cmac_sign_costs_inversion () =
  let cp = Census.fp4_constant_multiplier ~input_bits:8 (Hnlpu_fp4.Fp4.of_float 2.0) in
  let cn = Census.fp4_constant_multiplier ~input_bits:8 (Hnlpu_fp4.Fp4.of_float (-2.0)) in
  Alcotest.(check bool) "negative costs more" true (cn > cp)

let test_cmac_cheaper_than_full_mac () =
  (* §3.1: constant multiplier is several times smaller than a full one. *)
  let avg = Census.fp4_constant_multiplier_avg ~input_bits:8 in
  let full = float_of_int (Census.fp4_full_mac ~input_bits:8) in
  Alcotest.(check bool)
    (Printf.sprintf "avg cmac %.0f < full mac %.0f / 2" avg full)
    true
    (avg < full /. 2.0)

let test_full_mac_band () =
  (* Paper: "FP4 CMAC requires 200+ transistors". *)
  Alcotest.(check bool) "200+" true (Census.fp4_full_mac ~input_bits:8 >= 200)

let test_csa_cost_positive () =
  let stats = Hnlpu_fp4.Csa.tree ~width:8 ~operands:64 in
  Alcotest.(check bool) "cost > 0" true (Census.csa_cost stats > 0)

(* --- Sram ------------------------------------------------------------- *)

let test_sram_64kb_area () =
  (* The Figure 12 base unit. Raw bitcell area 0.011 mm²; macro area with
     periphery must be bigger but same order. *)
  let s = Sram.make ~capacity_bytes:65536 ~word_bits:4096 () in
  let a = Sram.area_mm2 tech s in
  Alcotest.(check bool) (Printf.sprintf "area %.4f in [0.011, 0.1]" a) true
    (a > 0.011 && a < 0.1)

let test_sram_streaming () =
  let s = Sram.make ~capacity_bytes:65536 ~word_bits:4096 () in
  Alcotest.(check int) "reads to stream all" 128
    (Sram.reads_to_stream s ~total_bits:(65536 * 8))

let test_sram_energy_scales_with_width () =
  let narrow = Sram.make ~capacity_bytes:65536 ~word_bits:64 () in
  let wide = Sram.make ~capacity_bytes:65536 ~word_bits:4096 () in
  Alcotest.(check bool) "wider word costs more per read" true
    (Sram.read_energy_j tech wide > Sram.read_energy_j tech narrow)

let test_sram_validation () =
  Alcotest.(check bool) "rejects zero" true
    (try
       ignore (Sram.make ~capacity_bytes:0 ~word_bits:32 ());
       false
     with Invalid_argument _ -> true)

(* --- Tech ------------------------------------------------------------- *)

let test_tech_area_inverse () =
  let n = 1.0e9 in
  let a = Tech.area_of_transistors tech n in
  Alcotest.(check bool) "inverse" true
    (Thelp.close ~rel:1e-9 n (Tech.transistors_of_area tech a))

let test_tech_strawman_area () =
  (* §2.2: 116.8B weights x 208 T at raw 138 MTr/mm² = ~176,000 mm². *)
  let area = 116.8e9 *. 208.0 /. tech.Tech.transistor_density_per_mm2 in
  Alcotest.(check bool) (Printf.sprintf "strawman %.0f ~ 176000" area) true
    (Thelp.within_pct 1.0 ~expected:176000.0 ~actual:area)

(* --- Yield MC & fault tolerance ------------------------------------------------ *)

let test_yield_monte_carlo_matches_murphy () =
  let rng = Rng.create 70 in
  let mc =
    Yield.monte_carlo rng ~defect_density_per_cm2:0.11 ~die_area_mm2:827.08
      ~trials:200_000
  in
  let closed = Yield.murphy ~defect_density_per_cm2:0.11 ~die_area_mm2:827.08 in
  Alcotest.(check bool)
    (Printf.sprintf "MC %.4f vs Murphy %.4f" mc closed)
    true
    (Float.abs (mc -. closed) < 0.01)

let test_low_yield_wafer_bill () =
  (* §8: at 1% yield, the extra wafers cost ~$0.5M (1 system) / ~$22M (50). *)
  let bill dies = Yield.wafer_bill_at_yield Tech.n5 ~die_area_mm2:827.08 ~yield_rate:0.01 ~dies in
  let low = bill 16 and high = bill 800 in
  Alcotest.(check bool) (Printf.sprintf "low %.2fM ~ 0.5M" (low /. 1e6)) true
    (low > 0.3e6 && low < 0.7e6);
  Alcotest.(check bool) (Printf.sprintf "high %.1fM ~ 22M" (high /. 1e6)) true
    (high > 20.0e6 && high < 24.0e6)

let test_low_yield_marginal_vs_tco () =
  (* "...which are marginal compared to the TCO." *)
  let high_bill =
    Yield.wafer_bill_at_yield Tech.n5 ~die_area_mm2:827.08 ~yield_rate:0.01 ~dies:800
  in
  let tco = (Tco.hnlpu_column Tco.High).Tco.tco_dynamic.Tco.lo in
  Alcotest.(check bool) "under 20% of TCO" true (high_bill < 0.2 *. tco)

let suites =
  [
    ( "yield",
      [
        Alcotest.test_case "murphy paper point" `Quick test_murphy_yield_paper;
        Alcotest.test_case "gross dies" `Quick test_gross_dies_paper;
        Alcotest.test_case "good dies" `Quick test_good_dies_paper;
        Alcotest.test_case "die cost $629" `Quick test_die_cost_paper;
        Alcotest.test_case "monotone in area" `Quick test_yield_monotone_in_area;
        Alcotest.test_case "perfect process" `Quick test_yield_perfect_process;
        Alcotest.test_case "wafer counts" `Quick test_wafers_for;
      ] );
    Thelp.qsuite "yield properties" [ prop_yield_bounds ];
    ( "census",
      [
        Alcotest.test_case "primitives" `Quick test_census_primitives;
        Alcotest.test_case "powers of two free" `Quick test_cmac_power_of_two_free;
        Alcotest.test_case "mantissa costs adder" `Quick test_cmac_mantissa_costs_adder;
        Alcotest.test_case "sign costs inversion" `Quick test_cmac_sign_costs_inversion;
        Alcotest.test_case "cmac vs full mac" `Quick test_cmac_cheaper_than_full_mac;
        Alcotest.test_case "full mac 200+" `Quick test_full_mac_band;
        Alcotest.test_case "csa cost" `Quick test_csa_cost_positive;
      ] );
    ( "sram",
      [
        Alcotest.test_case "64KB area" `Quick test_sram_64kb_area;
        Alcotest.test_case "streaming reads" `Quick test_sram_streaming;
        Alcotest.test_case "energy scales" `Quick test_sram_energy_scales_with_width;
        Alcotest.test_case "validation" `Quick test_sram_validation;
      ] );
    ( "tech",
      [
        Alcotest.test_case "area inverse" `Quick test_tech_area_inverse;
        Alcotest.test_case "strawman area" `Quick test_tech_strawman_area;
      ] );
    ( "yield-fault-tolerance",
      [
        Alcotest.test_case "MC = Murphy" `Slow test_yield_monte_carlo_matches_murphy;
        Alcotest.test_case "1% yield wafer bill" `Quick test_low_yield_wafer_bill;
        Alcotest.test_case "marginal vs TCO" `Quick test_low_yield_marginal_vs_tco;
      ] );
  ]
