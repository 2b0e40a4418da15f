(* Tests for the §8 discussion / future-work features: conditional
   decoding, sequence scoring & embedding, LoRA side-channel, yield
   Monte-Carlo & fault-tolerance economics, prefill chunking, Figure-11
   stage decomposition, ablations, and blue-green deployment. *)

open Hnlpu

let config = Config.gpt_oss_120b

(* --- Sampler extensions -------------------------------------------------- *)

let test_top_p_restricts () =
  let rng = Rng.create 1 in
  (* P = [0.6; 0.3; 0.1] roughly; p=0.7 keeps tokens 0 and 1. *)
  let logits = [| log 6.0; log 3.0; log 1.0 |] in
  for _ = 1 to 500 do
    let t = Sampler.sample rng (Sampler.Top_p (0.7, 1.0)) logits in
    Alcotest.(check bool) "in nucleus" true (t = 0 || t = 1)
  done

let test_top_p_full_mass_is_temperature () =
  let logits = [| 1.0; 2.0; 0.5; -1.0 |] in
  let a = Sampler.distribution (Sampler.Top_p (1.0, 1.0)) logits in
  let b = Sampler.distribution (Sampler.Temperature 1.0) logits in
  Alcotest.(check (array (float 1e-12))) "p=1 is plain softmax" b a

let test_top_p_distribution_normalized () =
  let d = Sampler.distribution (Sampler.Top_p (0.5, 0.7)) [| 3.0; 1.0; 0.0; -2.0 |] in
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 (Array.fold_left ( +. ) 0.0 d)

let test_top_p_validation () =
  Alcotest.(check bool) "p=0 rejected" true
    (try
       ignore (Sampler.distribution (Sampler.Top_p (0.0, 1.0)) [| 1.0 |]);
       false
     with Invalid_argument _ -> true)

let prop_top_p_simplex =
  QCheck.Test.make ~name:"top-p distribution on the simplex" ~count:100
    QCheck.(pair (float_range 0.05 1.0) (array_of_size (Gen.int_range 2 30) (float_range (-5.0) 5.0)))
    (fun (p, logits) ->
      let d = Sampler.distribution (Sampler.Top_p (p, 1.0)) logits in
      Array.for_all (fun q -> q >= 0.0 && q <= 1.0 +. 1e-9) d
      && Float.abs (Array.fold_left ( +. ) 0.0 d -. 1.0) < 1e-9)

(* --- Scoring / embedding -------------------------------------------------- *)

let make_tiny seed = Transformer.create (Weights.random (Rng.create seed) Config.tiny)

let test_score_negative_loglik () =
  let t = make_tiny 50 in
  let s = Transformer.score t [ 1; 2; 3; 4 ] in
  Alcotest.(check bool) (Printf.sprintf "score %.2f < 0" s) true (s < 0.0)

let test_score_greedy_sequence_likelier () =
  (* The greedy continuation must score at least as well as a perturbed one. *)
  let t = make_tiny 51 in
  let greedy =
    Transformer.generate (Rng.create 0) t ~prompt:[ 5 ] ~max_new_tokens:4 Sampler.Greedy
  in
  Transformer.reset t;
  let seq = 5 :: greedy in
  let s_greedy = Transformer.score t seq in
  let perturbed = match List.rev seq with _ :: rest -> List.rev (63 :: rest) | [] -> [] in
  let s_pert = Transformer.score t perturbed in
  Alcotest.(check bool)
    (Printf.sprintf "greedy %.3f >= perturbed %.3f" s_greedy s_pert)
    true (s_greedy >= s_pert)

let test_perplexity_bounds () =
  let t = make_tiny 52 in
  let p = Transformer.perplexity t [ 1; 2; 3; 4; 5 ] in
  (* Random weights can be worse than uniform, so perplexity may exceed
     the vocabulary size — but it must be finite and > 1. *)
  Alcotest.(check bool) (Printf.sprintf "ppl %.1f sane" p) true
    (p > 1.0 && Float.is_finite p && p < 1e4)

let test_embed_shape_and_determinism () =
  let t = make_tiny 53 in
  let e1 = Transformer.embed t [ 1; 2; 3 ] in
  let e2 = Transformer.embed t [ 1; 2; 3 ] in
  Alcotest.(check int) "hidden width" Config.tiny.Config.hidden (Array.length e1);
  Alcotest.(check (float 0.0)) "deterministic" 0.0 (Vec.max_abs_diff e1 e2);
  let e3 = Transformer.embed t [ 9; 8; 7 ] in
  Alcotest.(check bool) "different text, different embedding" true
    (Vec.max_abs_diff e1 e3 > 1e-9)

let test_score_validation () =
  let t = make_tiny 54 in
  Alcotest.(check bool) "one token rejected" true
    (try
       ignore (Transformer.score t [ 1 ]);
       false
     with Invalid_argument _ -> true)

(* --- LoRA ------------------------------------------------------------------ *)

let test_lora_starts_as_identity () =
  (* B initialized to zero: the adapter contributes nothing. *)
  let rng = Rng.create 60 in
  let l = Lora.create rng ~in_features:16 ~out_features:8 ~rank:2 in
  let x = Vec.gaussian rng 16 in
  Alcotest.(check (array (float 0.0))) "zero delta" (Array.make 8 0.0) (Lora.delta l x)

let test_lora_apply_matches_merged () =
  let rng = Rng.create 61 in
  let w = Mat.gaussian rng ~rows:16 ~cols:8 in
  let a = Mat.gaussian rng ~rows:16 ~cols:3 in
  let b = Mat.gaussian rng ~rows:3 ~cols:8 in
  let l = Lora.of_matrices ~a ~b () in
  let x = Vec.gaussian rng 16 in
  let via_apply = Lora.apply l ~base:(Mat.gemv w) x in
  let via_merged = Mat.gemv (Lora.merged l w) x in
  Alcotest.(check bool) "side-channel = merged re-spin" true
    (Vec.max_abs_diff via_apply via_merged < 1e-9)

let test_lora_on_hn_base () =
  (* The paper's actual proposal: hardwired HN bank + field-programmable
     low-rank side channel. *)
  let rng = Rng.create 62 in
  let w = Mat.gaussian rng ~rows:64 ~cols:16 in
  let hn = Hn_linear.of_matrix w in
  let a = Mat.gaussian rng ~rows:64 ~cols:4 in
  let b = Mat.gaussian rng ~rows:4 ~cols:16 in
  let l = Lora.of_matrices ~a ~b () in
  let x = Vec.gaussian rng 64 in
  let adapted_hw = Lora.apply l ~base:(Hn_linear.apply hn) x in
  let adapted_float = Lora.apply l ~base:(Mat.gemv (Hn_linear.dequantized hn)) x in
  let scale = Vec.norm2 adapted_float /. sqrt 16.0 in
  Alcotest.(check bool) "adapted HN tracks adapted float" true
    (Vec.max_abs_diff adapted_hw adapted_float /. Float.max scale 1e-12 < 0.05)

let test_lora_overhead_small () =
  let rng = Rng.create 63 in
  let l = Lora.create rng ~in_features:2880 ~out_features:2880 ~rank:8 in
  let o = Lora.parameter_overhead l ~in_features:2880 ~out_features:2880 in
  Alcotest.(check bool) (Printf.sprintf "overhead %.4f < 1%%" o) true (o < 0.01)

let test_side_channel_budget () =
  (* ~1% of HN capacity supports useful adapter ranks on gpt-oss. *)
  let r = Lora.Side_channel.max_rank config in
  Alcotest.(check bool) (Printf.sprintf "max uniform rank %d >= 4" r) true (r >= 4);
  Alcotest.(check bool) "supports rank 1" true (Lora.Side_channel.supports_rank config ~rank:1);
  Alcotest.(check bool) "rejects absurd rank" false
    (Lora.Side_channel.supports_rank config ~rank:4096)

let test_side_channel_area () =
  (* The side channel must stay a small fraction of the 573 mm² HN array. *)
  let a = Lora.Side_channel.area_overhead_mm2 config in
  Alcotest.(check bool) (Printf.sprintf "%.1f mm2 < 15%% of array" a) true
    (a > 0.0 && a < 0.15 *. 573.16)

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

(* --- Prefill & stage decomposition ----------------------------------------------- *)

let test_prefill_chunking_helps () =
  let t1 = Perf.prefill_throughput_tokens_per_s config ~chunk:1 ~context:2048 in
  let t8 = Perf.prefill_throughput_tokens_per_s config ~chunk:8 ~context:2048 in
  let t64 = Perf.prefill_throughput_tokens_per_s config ~chunk:64 ~context:2048 in
  Alcotest.(check bool) "chunk 1 = decode rate" true
    (Thelp.within_pct 1.0 ~expected:(Perf.throughput_tokens_per_s config ~context:2048)
       ~actual:t1);
  Alcotest.(check bool)
    (Printf.sprintf "chunk 8 (%.0f) > 2.5x decode" t8)
    true (t8 > 2.5 *. t1);
  Alcotest.(check bool) "diminishing returns" true
    (t64 > t8 && t64 < 16.0 *. t1)

let test_stage_times_sum_to_layer () =
  let stages = Perf.stage_times_s config ~context:2048 in
  Alcotest.(check int) "six stages" 6 (List.length stages);
  let sum = List.fold_left (fun a (_, t) -> a +. t) 0.0 stages in
  let expected =
    Perf.per_layer_comm_s config +. Perf.per_layer_projection_s config
    +. Perf.per_layer_nonlinear_s config
    +. Perf.per_layer_attention_s config ~context:2048
  in
  Alcotest.(check bool)
    (Printf.sprintf "sum %.3fus = layer %.3fus" (sum *. 1e6) (expected *. 1e6))
    true
    (Thelp.close ~rel:1e-9 expected sum)

let test_stage_labels_agree () =
  (* Regression: stage_times_s used to carry its own label copies, which
     had drifted from stage_names ("S1 HN..." vs "S1: HN...").  The
     latencies must now be keyed by stage_names itself, verbatim. *)
  Alcotest.(check (list string)) "labels are stage_names" Perf.stage_names
    (List.map fst (Perf.stage_times_s config ~context:2048))

let test_stage_times_attention_grows () =
  let at ctx =
    List.assoc "S2: attention QK + stats exchange" (Perf.stage_times_s config ~context:ctx)
  in
  (* S2 carries a fixed stats-exchange cost, so the growth is bounded by
     the attention half; 5x between 2K and 512K is the conservative check. *)
  Alcotest.(check bool) "S2 grows with context" true (at 524288 > 5.0 *. at 2048)

(* --- Ablations --------------------------------------------------------------------- *)

let test_interconnect_ordering () =
  let rows = Ablation.interconnect_sweep config in
  Alcotest.(check int) "four options" 4 (List.length rows);
  let tp (r : Ablation.interconnect_row) = r.Ablation.throughput_tokens_per_s in
  (match rows with
  | [ pcie; cxl; nvlink; wafer ] ->
    Alcotest.(check bool) "faster links, faster system" true
      (tp pcie < tp cxl && tp cxl < tp nvlink && tp nvlink < tp wafer);
    Alcotest.(check bool) "comm share shrinks" true
      (wafer.Ablation.comm_fraction < pcie.Ablation.comm_fraction);
    Alcotest.(check bool) "comm still dominates even at wafer-scale (fixed latency)"
      true
      (wafer.Ablation.comm_fraction > 0.3)
  | _ -> Alcotest.fail "unexpected row count")

let test_programmability_tradeoff () =
  match Ablation.programmability config with
  | [ metal; field ] ->
    Alcotest.(check bool) "field needs ~10x silicon" true
      (field.Ablation.silicon_mm2 > 8.0 *. metal.Ablation.silicon_mm2);
    Alcotest.(check bool) "field re-spins are free" true (field.Ablation.respin_usd = 0.0);
    Alcotest.(check bool) "field masks cheaper (fully homogeneous)" true
      (field.Ablation.mask_nre_usd < metal.Ablation.mask_nre_usd);
    Alcotest.(check bool) "field throughput lower" true
      (field.Ablation.relative_throughput < 0.7)
  | _ -> Alcotest.fail "expected two variants"

let test_precision_tradeoff () =
  let rows = Ablation.precision_sweep config in
  match rows with
  | [ b4; b8; b16 ] ->
    Alcotest.(check bool) "fewer bits, faster projection" true
      (b4.Ablation.projection_us_per_layer < b8.Ablation.projection_us_per_layer
      && b8.Ablation.projection_us_per_layer < b16.Ablation.projection_us_per_layer);
    Alcotest.(check bool) "throughput follows" true
      (b4.Ablation.throughput_tokens_per_s > b16.Ablation.throughput_tokens_per_s)
  | _ -> Alcotest.fail "expected three widths"

let test_slack_tradeoff () =
  let rows = Ablation.slack_sweep (Rng.create 8) ~trials:100 () in
  let get s = List.find (fun r -> r.Ablation.slack = s) rows in
  Alcotest.(check bool) "no slack always fails" true ((get 1.0).Ablation.failure_rate > 0.9);
  Alcotest.(check bool) "generous slack never fails" true
    ((get 2.0).Ablation.failure_rate = 0.0);
  Alcotest.(check bool) "monotone-ish" true
    ((get 1.1).Ablation.failure_rate >= (get 1.5).Ablation.failure_rate)

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

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "hnlpu_extensions"
    [
      ( "conditional-decoding",
        [
          Alcotest.test_case "top-p restricts" `Quick test_top_p_restricts;
          Alcotest.test_case "top-p p=1" `Quick test_top_p_full_mass_is_temperature;
          Alcotest.test_case "top-p normalized" `Quick test_top_p_distribution_normalized;
          Alcotest.test_case "top-p validation" `Quick test_top_p_validation;
        ] );
      qsuite "sampling properties" [ prop_top_p_simplex ];
      ( "scoring-embedding",
        [
          Alcotest.test_case "score is log-lik" `Quick test_score_negative_loglik;
          Alcotest.test_case "greedy scores best" `Quick test_score_greedy_sequence_likelier;
          Alcotest.test_case "perplexity bounds" `Quick test_perplexity_bounds;
          Alcotest.test_case "embedding" `Quick test_embed_shape_and_determinism;
          Alcotest.test_case "validation" `Quick test_score_validation;
        ] );
      ( "lora",
        [
          Alcotest.test_case "identity at init" `Quick test_lora_starts_as_identity;
          Alcotest.test_case "apply = merged" `Quick test_lora_apply_matches_merged;
          Alcotest.test_case "on HN base" `Quick test_lora_on_hn_base;
          Alcotest.test_case "overhead < 1%" `Quick test_lora_overhead_small;
          Alcotest.test_case "side-channel budget" `Quick test_side_channel_budget;
          Alcotest.test_case "side-channel area" `Quick test_side_channel_area;
        ] );
      ( "yield-fault-tolerance",
        [
          Alcotest.test_case "MC = Murphy" `Slow test_yield_monte_carlo_matches_murphy;
          Alcotest.test_case "1% yield wafer bill" `Quick test_low_yield_wafer_bill;
          Alcotest.test_case "marginal vs TCO" `Quick test_low_yield_marginal_vs_tco;
        ] );
      ( "prefill-stages",
        [
          Alcotest.test_case "chunking helps" `Quick test_prefill_chunking_helps;
          Alcotest.test_case "stages sum to layer" `Quick test_stage_times_sum_to_layer;
          Alcotest.test_case "stage labels agree" `Quick test_stage_labels_agree;
          Alcotest.test_case "attention stage grows" `Quick test_stage_times_attention_grows;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "interconnect" `Quick test_interconnect_ordering;
          Alcotest.test_case "programmability" `Quick test_programmability_tradeoff;
          Alcotest.test_case "precision" `Quick test_precision_tradeoff;
          Alcotest.test_case "slack" `Quick test_slack_tradeoff;
        ] );
      ( "deployment",
        [
          Alcotest.test_case "blue-green annual" `Quick test_blue_green_annual;
          Alcotest.test_case "blue-green no updates" `Quick test_blue_green_no_updates;
          Alcotest.test_case "volume amortization" `Quick test_volume_amortization;
          Alcotest.test_case "crossover" `Quick test_crossover_early;
        ] );
    ]
