open Hnlpu_baseline
open Hnlpu_util

let config = Hnlpu_model.Config.gpt_oss_120b

(* --- H100 ------------------------------------------------------------------- *)

let test_h100_anchors () =
  Alcotest.(check (float 0.0)) "measured 45 tok/s" 45.0 H100.measured_decode_tokens_per_s;
  Alcotest.(check (float 0.01)) "$40K per GPU" 40_000.0 H100.price_per_gpu_usd

let test_h100_active_bytes () =
  (* Top-4 of 128 experts at FP4: ~2.3 GB touched per decode step. *)
  let b = H100.active_weight_bytes_per_token config in
  Alcotest.(check bool) (Printf.sprintf "%.2f GB" (b /. 1e9)) true
    (b > 2.0e9 && b < 2.6e9)

let test_h100_roofline_batching () =
  (* Batching amortizes weight reads — but MoE blunts it at small batch
     (each new token drags in mostly-new experts), so the big wins only
     appear once the expert set saturates. *)
  let t1 = H100.roofline_tokens_per_s config ~batch:1 in
  let t8 = H100.roofline_tokens_per_s config ~batch:8 in
  let t64 = H100.roofline_tokens_per_s config ~batch:64 in
  let t256 = H100.roofline_tokens_per_s config ~batch:256 in
  Alcotest.(check bool) "monotone" true (t1 < t8 && t8 < t64 && t64 < t256);
  Alcotest.(check bool) "small-batch gain is weak (MoE)" true (t8 < 2.0 *. t1);
  Alcotest.(check bool) "large-batch gain is strong" true (t256 > 5.0 *. t1)

let test_h100_roofline_concurrency50_anchor () =
  (* Appendix B note 1: ~1.08K tokens/s per GPU at concurrency 50; the
     roofline with default efficiency must land within ~35%. *)
  let t = H100.roofline_tokens_per_s config ~batch:50 in
  Alcotest.(check bool) (Printf.sprintf "roofline(50) = %.0f" t) true
    (Thelp.rel_error H100.concurrent_tokens_per_s t < 0.35)

let test_h100_roofline_validation () =
  Alcotest.(check bool) "bad batch" true
    (try
       ignore (H100.roofline_tokens_per_s config ~batch:0);
       false
     with Invalid_argument _ -> true)

let test_next_gen_gap_persists () =
  (* §8: new GPU generations narrow but do not close the gap — weights
     still stream through memory every token. *)
  let ng = H100.b200_class in
  let tput = H100.next_gen_decode_tokens_per_s ng in
  Alcotest.(check bool) (Printf.sprintf "B200-class %.0f tok/s" tput) true
    (tput > H100.measured_decode_tokens_per_s && tput < 200.0);
  let hnlpu = Hnlpu_system.Perf.throughput_tokens_per_s config ~context:2048 in
  Alcotest.(check bool) "still >1000x behind" true (hnlpu /. tput > 1000.0);
  let eff = H100.next_gen_tokens_per_kj ng in
  let paper_eff = Hnlpu.Paper.(value (find "Table 2" "HNLPU energy efficiency")) in
  Alcotest.(check bool) "efficiency gap >300x" true (paper_eff /. eff > 300.0)

(* --- WSE-3 -------------------------------------------------------------------- *)

let test_wse3_anchors () =
  Alcotest.(check (float 0.0)) "2,940 tok/s" 2940.0 Wse3.measured_tokens_per_s

(* --- Table 2 -------------------------------------------------------------------- *)

let systems = Compare.table2 ()

let get name = List.find (fun s -> s.Compare.sys_name = name) systems

let test_table2_area_efficiency_ordering () =
  let hn = get "HNLPU" and gpu = get "H100" and wse = get "WSE-3" in
  Alcotest.(check bool) "HNLPU wins area efficiency by orders" true
    (hn.Compare.tokens_per_s_mm2 > 100.0 *. gpu.Compare.tokens_per_s_mm2
    && hn.Compare.tokens_per_s_mm2 > 100.0 *. wse.Compare.tokens_per_s_mm2)

let test_table2_renders () =
  let s = Thelp.artifact "Table 2" in
  Alcotest.(check bool) "rows present" true
    (Thelp.contains s "HNLPU throughput" && Thelp.contains s "WSE-3 energy efficiency"
    && Thelp.contains s "Throughput vs H100")

(* --- Energy decomposition ---------------------------------------------------- *)

let energy = Energy.analyze ()

let test_energy_totals () =
  (* Table 2: 36 tokens/J at 2K context (reciprocal: ~27.6 mJ/token); the
     decomposition lands within 2% of its efficiency rows. *)
  let paper row = Hnlpu.Paper.(value (find "Table 2" row)) in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f tokens/J" energy.Energy.tokens_per_joule)
    true
    (Thelp.within_pct 2.0 ~expected:(paper "HNLPU energy efficiency" /. 1000.0)
       ~actual:energy.Energy.tokens_per_joule);
  Alcotest.(check bool)
    (Printf.sprintf "advantage %.0fx" energy.Energy.advantage)
    true
    (Thelp.within_pct 2.0 ~expected:(paper "Efficiency vs H100") ~actual:energy.Energy.advantage)

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

let suites =
  [
    ( "h100",
      [
        Alcotest.test_case "anchors" `Quick test_h100_anchors;
        Alcotest.test_case "active bytes" `Quick test_h100_active_bytes;
        Alcotest.test_case "roofline batching" `Quick test_h100_roofline_batching;
        Alcotest.test_case "concurrency-50 anchor" `Quick test_h100_roofline_concurrency50_anchor;
        Alcotest.test_case "validation" `Quick test_h100_roofline_validation;
        Alcotest.test_case "next-gen gap persists" `Quick test_next_gen_gap_persists;
      ] );
    ("wse3", [ Alcotest.test_case "anchors" `Quick test_wse3_anchors ]);
    ( "table-2",
      [
        Alcotest.test_case "HNLPU row" `Quick (Thelp.paper "Table 2" "HNLPU energy efficiency");
        Alcotest.test_case "headline ratios" `Quick (Thelp.paper "Table 2" "Throughput vs H100");
        Alcotest.test_case "area efficiency" `Quick test_table2_area_efficiency_ordering;
        Alcotest.test_case "renders" `Quick test_table2_renders;
      ] );
    ( "energy",
      [
        Alcotest.test_case "36 tokens/J" `Quick test_energy_totals;
        Alcotest.test_case "shares" `Quick test_energy_shares_sum;
        Alcotest.test_case "no weight movement" `Quick test_energy_no_weight_movement;
        Alcotest.test_case "renders" `Quick test_energy_table_renders;
      ] );
  ]
