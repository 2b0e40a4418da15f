(* Tests for the Sea-of-Neurons prefab planner (§8 "Enhanced Flexibility")
   and the per-token energy decomposition behind Table 2's 36 tokens/J. *)

open Hnlpu
open Hnlpu_litho

(* --- Sea-of-Neurons planning --------------------------------------------- *)

let test_reference_model_fits_exactly () =
  let p = Sea_of_neurons.plan Config.gpt_oss_120b in
  Alcotest.(check int) "gpt-oss lands on 16 chips" 16 p.Sea_of_neurons.chips_needed;
  Alcotest.(check bool) "fits" true p.Sea_of_neurons.fits_reference_16;
  (* Port slack 1.25 -> ~80% utilization on matched shapes. *)
  Alcotest.(check bool)
    (Printf.sprintf "utilization %.3f" p.Sea_of_neurons.avg_port_utilization)
    true
    (Thelp.within_pct 2.0 ~expected:0.8 ~actual:p.Sea_of_neurons.avg_port_utilization)

let test_20b_fits_prefab () =
  (* §8 future work 1: hyper-parameter updates on the same prefab — the
     20B sibling shares the geometry, so it tiles cleanly onto a few
     chips. *)
  let p = Sea_of_neurons.plan Config.gpt_oss_20b in
  Alcotest.(check bool)
    (Printf.sprintf "chips %d small" p.Sea_of_neurons.chips_needed)
    true
    (p.Sea_of_neurons.chips_needed <= 4);
  Alcotest.(check bool) "penalty near 1" true
    (Sea_of_neurons.utilization_penalty Config.gpt_oss_20b < 1.2)

let test_mismatched_shapes_pay_fragmentation () =
  let narrow =
    {
      Config.gpt_oss_20b with
      Config.name = "narrow";
      hidden = 1024;
      expert_hidden = 1024;
      q_heads = 16;
      kv_heads = 8;
    }
  in
  let penalty = Sea_of_neurons.utilization_penalty narrow in
  Alcotest.(check bool)
    (Printf.sprintf "penalty %.2f > 2" penalty)
    true (penalty > 2.0);
  let p = Sea_of_neurons.plan narrow in
  Alcotest.(check bool) "port utilization poor" true
    (p.Sea_of_neurons.avg_port_utilization < 0.4)

let test_wide_fan_in_chains_tiles () =
  (* Wo's fan-in (4096) exceeds the 3600-port tile: chained. *)
  let p = Sea_of_neurons.plan Config.gpt_oss_120b in
  let wo =
    List.find (fun d -> d.Sea_of_neurons.proj_name = "Wo") p.Sea_of_neurons.demands
  in
  Alcotest.(check int) "two tiles per Wo neuron" 2 wo.Sea_of_neurons.tiles_per_neuron

let test_plan_rejects_external () =
  Alcotest.(check bool) "footprint-only rejected" true
    (try
       ignore (Sea_of_neurons.plan Config.kimi_k2);
       false
     with Invalid_argument _ -> true)

(* --- Energy decomposition ---------------------------------------------------- *)

let energy = Energy.analyze ()

let test_energy_totals () =
  (* Table 2: 36 tokens/J at 2K context (reciprocal: ~27.6 mJ/token). *)
  Alcotest.(check bool)
    (Printf.sprintf "%.1f tokens/J" energy.Energy.tokens_per_joule)
    true
    (Thelp.within_pct 2.0 ~expected:36.2 ~actual:energy.Energy.tokens_per_joule);
  Alcotest.(check bool)
    (Printf.sprintf "advantage %.0fx" energy.Energy.advantage)
    true
    (Thelp.within_pct 2.0 ~expected:1047.0 ~actual:energy.Energy.advantage)

let test_energy_shares_sum () =
  let sum = List.fold_left (fun a r -> a +. r.Energy.share) 0.0 energy.Energy.rows in
  Alcotest.(check bool) "shares sum to 1" true (Float.abs (sum -. 1.0) < 1e-9)

let test_energy_no_weight_movement () =
  (* The architectural point: the HN array (compute over hardwired
     weights) costs a few mJ — there is no tens-of-mJ DRAM-weight-read
     line item, which is where the H100's 28.9 J/token goes. *)
  let hn = List.find (fun r -> r.Energy.component = "HN Array") energy.Energy.rows in
  Alcotest.(check bool) "HN compute is mJ-scale" true (hn.Energy.energy_mj < 10.0);
  Alcotest.(check bool) "total is 1000x under H100" true
    (energy.Energy.total_mj_per_token *. 500.0 < energy.Energy.h100_mj_per_token)

let test_energy_table_renders () =
  let s = Table.render (Energy.to_table energy) in
  Alcotest.(check bool) "renders" true
    (Thelp.contains s "HN Array" && Thelp.contains s "H100 (measured)")

let () =
  Alcotest.run "hnlpu_prefab"
    [
      ( "sea-of-neurons",
        [
          Alcotest.test_case "reference fits 16" `Quick test_reference_model_fits_exactly;
          Alcotest.test_case "20B fits" `Quick test_20b_fits_prefab;
          Alcotest.test_case "fragmentation penalty" `Quick test_mismatched_shapes_pay_fragmentation;
          Alcotest.test_case "tile chaining" `Quick test_wide_fan_in_chains_tiles;
          Alcotest.test_case "rejects external" `Quick test_plan_rejects_external;
        ] );
      ( "energy",
        [
          Alcotest.test_case "36 tokens/J" `Quick test_energy_totals;
          Alcotest.test_case "shares" `Quick test_energy_shares_sum;
          Alcotest.test_case "no weight movement" `Quick test_energy_no_weight_movement;
          Alcotest.test_case "renders" `Quick test_energy_table_renders;
        ] );
    ]
