open Hnlpu_baseline
open Hnlpu_util

let config = Hnlpu_model.Config.gpt_oss_120b

(* --- H100 ------------------------------------------------------------------- *)

let test_h100_anchors () =
  Alcotest.(check (float 0.0)) "measured 45 tok/s" 45.0 H100.measured_decode_tokens_per_s;
  Alcotest.(check bool) "34.6 tok/kJ" true
    (Thelp.within_pct 1.0 ~expected:34.6 ~actual:H100.tokens_per_kj);
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
  Alcotest.(check bool) "efficiency gap >300x" true (36_226.0 /. eff > 300.0)

(* --- WSE-3 -------------------------------------------------------------------- *)

let test_wse3_anchors () =
  Alcotest.(check (float 0.0)) "2,940 tok/s" 2940.0 Wse3.measured_tokens_per_s;
  Alcotest.(check bool) "127.8 tok/kJ" true
    (Thelp.within_pct 1.0 ~expected:127.8 ~actual:Wse3.tokens_per_kj);
  Alcotest.(check bool) "0.064 tok/(s.mm2)" true
    (Thelp.within_pct 2.0 ~expected:0.064 ~actual:Wse3.area_efficiency)

(* --- Table 2 -------------------------------------------------------------------- *)

let systems = Compare.table2 ()

let get name = List.find (fun s -> s.Compare.sys_name = name) systems

let test_table2_hnlpu_row () =
  let hn = get "HNLPU" in
  Alcotest.(check bool) "throughput ~249,960" true
    (Thelp.within_pct 1.0 ~expected:249_960.0 ~actual:hn.Compare.throughput_tokens_per_s);
  Alcotest.(check bool) "silicon ~13,232" true
    (Thelp.within_pct 1.0 ~expected:13_232.0 ~actual:hn.Compare.silicon_mm2);
  Alcotest.(check bool) "power ~6.9 kW" true
    (Thelp.within_pct 1.0 ~expected:6900.0 ~actual:hn.Compare.system_power_w);
  Alcotest.(check bool) "efficiency ~36,226 tok/kJ" true
    (Thelp.within_pct 1.0 ~expected:36_226.0 ~actual:hn.Compare.tokens_per_kj);
  Alcotest.(check bool) "area efficiency ~18.89" true
    (Thelp.within_pct 1.0 ~expected:18.89 ~actual:hn.Compare.tokens_per_s_mm2)

let test_table2_headline_ratios () =
  (* 5,555x / 85x throughput; 1,047x / 283x efficiency. *)
  let hn = get "HNLPU" and gpu = get "H100" and wse = get "WSE-3" in
  Alcotest.(check bool) "5,555x vs H100" true
    (Thelp.within_pct 1.0 ~expected:5555.0
       ~actual:(Compare.throughput_ratio hn ~over:gpu));
  Alcotest.(check bool) "85x vs WSE-3" true
    (Thelp.within_pct 1.0 ~expected:85.0 ~actual:(Compare.throughput_ratio hn ~over:wse));
  Alcotest.(check bool) "1,047x efficiency vs H100" true
    (Thelp.within_pct 1.0 ~expected:1047.0
       ~actual:(Compare.efficiency_ratio hn ~over:gpu));
  Alcotest.(check bool) "283x efficiency vs WSE-3" true
    (Thelp.within_pct 1.0 ~expected:283.0 ~actual:(Compare.efficiency_ratio hn ~over:wse))

let test_table2_area_efficiency_ordering () =
  let hn = get "HNLPU" and gpu = get "H100" and wse = get "WSE-3" in
  Alcotest.(check bool) "HNLPU wins area efficiency by orders" true
    (hn.Compare.tokens_per_s_mm2 > 100.0 *. gpu.Compare.tokens_per_s_mm2
    && hn.Compare.tokens_per_s_mm2 > 100.0 *. wse.Compare.tokens_per_s_mm2)

let test_table2_renders () =
  let s = Table.render (Compare.to_table systems) in
  Alcotest.(check bool) "headers present" true
    (Thelp.contains s "HNLPU" && Thelp.contains s "WSE-3"
    && Thelp.contains s "Throughput")

let () =
  Alcotest.run "hnlpu_baseline"
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
          Alcotest.test_case "HNLPU row" `Quick test_table2_hnlpu_row;
          Alcotest.test_case "headline ratios" `Quick test_table2_headline_ratios;
          Alcotest.test_case "area efficiency" `Quick test_table2_area_efficiency_ordering;
          Alcotest.test_case "renders" `Quick test_table2_renders;
        ] );
    ]
