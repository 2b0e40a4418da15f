open Hnlpu
open Hnlpu_model
open Hnlpu_util

(* --- Config / Params --------------------------------------------------- *)

let test_gpt_oss_param_count () =
  (* §6.2: "gpt-oss 120 B" — the architectural shapes must add up to the
     ~117B total implied by the paper's dataflow dimensions. *)
  let c = Config.gpt_oss_120b in
  Config.validate c;
  let total = Params.total c in
  Alcotest.(check bool)
    (Printf.sprintf "total %.1fB in [115B, 120B]" (total /. 1e9))
    true
    (total >= 115.0e9 && total <= 120.0e9)

let test_gpt_oss_shapes () =
  let c = Config.gpt_oss_120b in
  Alcotest.(check int) "q_dim 4096 (64 heads x 64)" 4096 (Config.q_dim c);
  Alcotest.(check int) "kv_dim 512 (8 heads x 64)" 512 (Config.kv_dim c);
  Alcotest.(check int) "GQA group of 8" 8 (Config.gqa_group c)

let test_gpt_oss_hardwired_per_chip () =
  (* 16 chips share the hardwired weights: ~7.2B parameters each. *)
  let per_chip = Params.hardwired Config.gpt_oss_120b /. 16.0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.2fB per chip" (per_chip /. 1e9))
    true
    (per_chip > 7.0e9 && per_chip < 7.5e9)

let test_gpt_oss_20b () =
  let c = Config.gpt_oss_20b in
  Config.validate c;
  let total = Params.total c in
  (* ~21B parameters. *)
  Alcotest.(check bool)
    (Printf.sprintf "total %.1fB ~ 21B" (total /. 1e9))
    true
    (total > 19.0e9 && total < 23.0e9);
  (* Same grid divisibility as the flagship: mappable onto 4x4. *)
  Hnlpu_system.Mapping.check_mappable c;
  (* Fewer layers -> smaller pipeline, lower peak batch. *)
  Alcotest.(check int) "144 slots" 144 (Hnlpu_system.Perf.pipeline_slots c)

let test_external_models () =
  List.iter Config.validate Config.table4_models;
  Alcotest.(check (float 0.0)) "K2 params" 1.0e12 (Params.total Config.kimi_k2);
  Alcotest.(check bool) "QwQ bytes = 64GB" true
    (Thelp.close ~rel:1e-9 (Params.bytes Config.qwq_32b) 64e9)

let test_config_validation () =
  let bad = { Config.tiny with Config.q_heads = 3; kv_heads = 2 } in
  Alcotest.(check bool) "uneven GQA rejected" true
    (try
       Config.validate bad;
       false
     with Invalid_argument _ -> true);
  let bad2 = { Config.tiny with Config.experts_per_token = 99 } in
  Alcotest.(check bool) "top-k > experts rejected" true
    (try
       Config.validate bad2;
       false
     with Invalid_argument _ -> true)

(* --- Weights ------------------------------------------------------------ *)

let test_weights_count_matches_params () =
  let w = Weights.random (Rng.create 1) Config.tiny in
  Alcotest.(check int) "instantiated = counted"
    (int_of_float (Params.total Config.tiny))
    (Weights.count_params w)

let test_weights_quantized_are_fp4 () =
  (* After the MXFP4 round-trip every weight must be scale * E2M1 value. *)
  let w = Weights.random ~quantize_fp4:true (Rng.create 2) Config.tiny in
  let l = w.Weights.layers.(0) in
  let row = Hnlpu_tensor.Mat.row l.Weights.wq 0 in
  let blocks = Hnlpu_fp4.Blockscale.quantize row in
  let roundtrip = Hnlpu_fp4.Blockscale.dequantize blocks in
  Alcotest.(check bool) "idempotent quantization" true
    (Hnlpu_tensor.Vec.max_abs_diff row roundtrip < 1e-12)

let test_weights_rejects_external () =
  Alcotest.(check bool) "external model has no tensors" true
    (try
       ignore (Weights.random (Rng.create 0) Config.kimi_k2);
       false
     with Invalid_argument _ -> true)

(* --- Rope ---------------------------------------------------------------- *)

(* One head rotated out of place: the angles of [pos], then the rotation. *)
let rope ~head_dim ~pos v =
  let out = Array.copy v in
  Rope.rotate (Rope.angles ~head_dim ~pos) out;
  out

let test_rope_pos0_identity () =
  let v = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (array (float 1e-12))) "pos 0 is identity" v
    (rope ~head_dim:4 ~pos:0 v)

let test_rope_preserves_norm () =
  let v = [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 |] in
  let r = rope ~head_dim:6 ~pos:17 v in
  Alcotest.(check (float 1e-9)) "rotation preserves norm"
    (Hnlpu_tensor.Vec.norm2 v) (Hnlpu_tensor.Vec.norm2 r)

let test_rope_relative_position () =
  (* RoPE's defining property: <R_m q, R_n k> depends only on n - m. *)
  let rng = Rng.create 3 in
  let q = Hnlpu_tensor.Vec.gaussian rng 8 and k = Hnlpu_tensor.Vec.gaussian rng 8 in
  let dot m n =
    Hnlpu_tensor.Vec.dot (rope ~head_dim:8 ~pos:m q) (rope ~head_dim:8 ~pos:n k)
  in
  Alcotest.(check (float 1e-9)) "shift invariance" (dot 3 7) (dot 10 14)

(* --- Kv_cache ------------------------------------------------------------ *)

let test_kv_cache_basic () =
  let cache = Kv_cache.create Config.tiny in
  Alcotest.(check int) "empty" 0 (Kv_cache.length cache ~layer:0);
  let kv_dim = Config.kv_dim Config.tiny in
  Kv_cache.append cache ~layer:0 ~k:(Array.make kv_dim 1.0) ~v:(Array.make kv_dim 2.0);
  Kv_cache.append cache ~layer:0 ~k:(Array.make kv_dim 3.0) ~v:(Array.make kv_dim 4.0);
  Alcotest.(check int) "two entries" 2 (Kv_cache.length cache ~layer:0);
  Alcotest.(check int) "other layer untouched" 0 (Kv_cache.length cache ~layer:1);
  (* Position p, KV head h starts at p * kv_dim + h * head_dim. *)
  let head_dim = Config.tiny.Config.head_dim in
  let ks = Kv_cache.keys cache ~layer:0 and vs = Kv_cache.values cache ~layer:0 in
  Alcotest.(check (float 0.0)) "first key, head 1" 1.0 ks.(head_dim);
  Alcotest.(check (float 0.0)) "second key, last element" 3.0 ks.((2 * kv_dim) - 1);
  Alcotest.(check (float 0.0)) "second value, head 0" 4.0 vs.(kv_dim)

let test_kv_cache_clear () =
  let cache = Kv_cache.create Config.tiny in
  let kv_dim = Config.kv_dim Config.tiny in
  Kv_cache.append cache ~layer:1 ~k:(Array.make kv_dim 0.0) ~v:(Array.make kv_dim 0.0);
  Kv_cache.clear cache;
  Alcotest.(check int) "cleared" 0 (Kv_cache.length cache ~layer:1)

let test_kv_bytes_per_position () =
  (* gpt-oss: 2 (K and V) x 36 layers x 512 x 2B (fp16) = 73,728 B/token. *)
  Alcotest.(check int) "gpt-oss KV growth" 73728
    (Kv_cache.bytes_per_position Config.gpt_oss_120b ~kv_bytes_per_element:2)

(* --- Sampler -------------------------------------------------------------- *)

let test_sampler_greedy () =
  let rng = Rng.create 1 in
  Alcotest.(check int) "greedy argmax" 2
    (Sampler.sample rng Sampler.Greedy [| 0.1; 0.2; 5.0; 0.3 |])

let test_sampler_temperature_distribution () =
  let rng = Rng.create 2 in
  let logits = [| 0.0; log 3.0 |] in
  (* P(1) = 3/4 at temperature 1. *)
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Sampler.sample rng (Sampler.Temperature 1.0) logits = 1 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "p=%.3f ~ 0.75" p) true (Float.abs (p -. 0.75) < 0.02)

let test_sampler_topk_restricts () =
  let rng = Rng.create 3 in
  let logits = [| 10.0; 9.0; -50.0; 8.0 |] in
  for _ = 1 to 1000 do
    let t = Sampler.sample rng (Sampler.Top_k (2, 1.0)) logits in
    Alcotest.(check bool) "only top-2 tokens" true (t = 0 || t = 1)
  done

let test_sampler_log_prob () =
  let lp = log (Sampler.distribution (Sampler.Top_k (1, 1.0)) [| 1.0; 2.0 |]).(0) in
  Alcotest.(check bool) "outside top-k impossible" true (lp = neg_infinity)

let test_sampler_validation () =
  Alcotest.(check bool) "bad temperature" true
    (try
       ignore (Sampler.sample (Rng.create 0) (Sampler.Temperature 0.0) [| 1.0 |]);
       false
     with Invalid_argument _ -> true)

(* --- Transformer ----------------------------------------------------------- *)

let make_tiny ?(quantize = false) seed =
  Transformer.create (Weights.random ~quantize_fp4:quantize (Rng.create seed) Config.tiny)

let test_forward_shape () =
  let t = make_tiny 10 in
  let logits = Transformer.forward t ~token:5 in
  Alcotest.(check int) "vocab logits" Config.tiny.Config.vocab (Array.length logits);
  Alcotest.(check bool) "finite" true (Array.for_all Float.is_finite logits);
  Alcotest.(check int) "position advanced" 1 (Transformer.position t)

let test_forward_deterministic () =
  let a = make_tiny 11 and b = make_tiny 11 in
  let la = Transformer.prefill a [ 1; 2; 3 ] and lb = Transformer.prefill b [ 1; 2; 3 ] in
  Alcotest.(check (float 0.0)) "identical" 0.0 (Hnlpu_tensor.Vec.max_abs_diff la lb)

let test_forward_context_matters () =
  (* The same token after different prefixes must produce different logits —
     i.e. attention actually reads the cache. *)
  let a = make_tiny 12 and b = make_tiny 12 in
  let la = Transformer.prefill a [ 1; 2; 9 ] and lb = Transformer.prefill b [ 4; 7; 9 ] in
  Alcotest.(check bool) "context-dependent" true
    (Hnlpu_tensor.Vec.max_abs_diff la lb > 1e-9)

let test_forward_oov () =
  let t = make_tiny 13 in
  Alcotest.(check bool) "oov rejected" true
    (try
       ignore (Transformer.forward t ~token:(-1));
       false
     with Invalid_argument _ -> true)

let test_reset_reproduces () =
  let t = make_tiny 14 in
  let l1 = Transformer.prefill t [ 3; 1; 4 ] in
  Transformer.reset t;
  Alcotest.(check int) "position reset" 0 (Transformer.position t);
  let l2 = Transformer.prefill t [ 3; 1; 4 ] in
  Alcotest.(check (float 0.0)) "same logits after reset" 0.0
    (Hnlpu_tensor.Vec.max_abs_diff l1 l2)

let test_expert_load_topk () =
  let t = make_tiny 15 in
  ignore (Transformer.prefill t [ 1; 2; 3; 4; 5 ]);
  let load = Transformer.expert_load t in
  let total = Array.fold_left ( + ) 0 load in
  (* 5 tokens x 2 layers x top-2 experts. *)
  Alcotest.(check int) "activations = tokens*layers*k" (5 * 2 * 2) total

let test_dense_ffn_path () =
  let w = Weights.random (Rng.create 16) Config.tiny_dense in
  let t = Transformer.create w in
  let logits = Transformer.forward t ~token:0 in
  Alcotest.(check bool) "dense forward finite" true (Array.for_all Float.is_finite logits);
  Alcotest.(check int) "single expert used" 1 (Array.length (Transformer.expert_load t))

let test_generate_terminates () =
  let t = make_tiny 17 in
  let toks =
    Transformer.generate (Rng.create 5) t ~prompt:[ 1 ] ~max_new_tokens:8
      (Sampler.Temperature 1.0)
  in
  Alcotest.(check int) "8 tokens" 8 (List.length toks);
  List.iter
    (fun tok ->
      Alcotest.(check bool) "in vocab" true (tok >= 0 && tok < Config.tiny.Config.vocab))
    toks

let test_generate_greedy_prefix () =
  (* Greedy decoding is deterministic, and [max_new_tokens] only cuts it
     short: a one-token run is the first token of an eight-token run. *)
  let greedy n =
    Transformer.generate (Rng.create 0) (make_tiny 18) ~prompt:[ 2 ] ~max_new_tokens:n
      Sampler.Greedy
  in
  match greedy 8 with
  | first :: _ as toks ->
    Alcotest.(check int) "8 tokens" 8 (List.length toks);
    Alcotest.(check (list int)) "one-token run is the prefix" [ first ] (greedy 1)
  | [] -> Alcotest.fail "expected eight tokens"

let test_quantized_model_runs () =
  let t = make_tiny ~quantize:true 19 in
  let logits = Transformer.prefill t [ 1; 2; 3 ] in
  Alcotest.(check bool) "fp4 model finite" true (Array.for_all Float.is_finite logits)

let prop_prefill_equals_forwards =
  QCheck.Test.make ~name:"prefill = repeated forward" ~count:20
    QCheck.(pair (int_range 0 10000) (list_of_size (Gen.int_range 1 6) (int_range 0 63)))
    (fun (seed, prompt) ->
      let a = make_tiny seed and b = make_tiny seed in
      let la = Transformer.prefill a prompt in
      let lb = List.fold_left (fun _ tok -> Transformer.forward b ~token:tok) [||] prompt in
      Hnlpu_tensor.Vec.max_abs_diff la lb = 0.0)

(* --- Hn_linear: the HN-hardware bridge ---------------------------------- *)

let test_hn_linear_exactness_vs_quantized () =
  (* ME arithmetic is exact on the quantized values: apply ~ apply_float up
     to activation quantization only. *)
  let rng = Rng.create 20 in
  let m = Hnlpu_tensor.Mat.gaussian rng ~rows:64 ~cols:16 in
  let hn = Hn_linear.of_matrix m in
  let x = Hnlpu_tensor.Vec.gaussian rng 64 in
  let y_hw = Hn_linear.apply hn x in
  let y_float = Hn_linear.apply_float hn x in
  let scale = Hnlpu_tensor.Vec.norm2 y_float /. sqrt 16.0 in
  let err = Hnlpu_tensor.Vec.max_abs_diff y_hw y_float /. Float.max scale 1e-9 in
  Alcotest.(check bool) (Printf.sprintf "act-quant err %.4f < 2%%" err) true (err < 0.02)

let test_hn_linear_close_to_float () =
  let rng = Rng.create 21 in
  let m = Hnlpu_tensor.Mat.gaussian rng ~rows:64 ~cols:16 in
  let hn = Hn_linear.of_matrix m in
  let x = Hnlpu_tensor.Vec.gaussian rng 64 in
  let y_hw = Hn_linear.apply hn x in
  let y_ref = Hnlpu_tensor.Mat.gemv m x in
  let scale = Hnlpu_tensor.Vec.norm2 y_ref /. sqrt 16.0 in
  let err = Hnlpu_tensor.Vec.max_abs_diff y_hw y_ref /. Float.max scale 1e-9 in
  (* Weight quantization dominates; E2M1 with per-neuron scales on Gaussian
     data stays within ~25% worst-case per element. *)
  Alcotest.(check bool) (Printf.sprintf "total err %.4f < 0.4" err) true (err < 0.4)

let test_hn_linear_zero_input () =
  let rng = Rng.create 22 in
  let m = Hnlpu_tensor.Mat.gaussian rng ~rows:32 ~cols:8 in
  let hn = Hn_linear.of_matrix m in
  let y = Hn_linear.apply hn (Array.make 32 0.0) in
  Alcotest.(check (array (float 0.0))) "zeros" (Array.make 8 0.0) y

let test_hn_linear_report () =
  let rng = Rng.create 23 in
  let m = Hnlpu_tensor.Mat.gaussian rng ~rows:32 ~cols:8 in
  let hn = Hn_linear.of_matrix m in
  let r = Hn_linear.report hn in
  Alcotest.(check bool) "has area" true (r.Hnlpu_neuron.Report.area_mm2 > 0.0)

(* --- Quantization fidelity ------------------------------------------------------ *)

let test_quant_eval_fidelity () =
  let r = Quant_eval.evaluate (Rng.create 99) Config.tiny in
  Alcotest.(check bool)
    (Printf.sprintf "ppl ratio %.3f within 25%%" r.Quant_eval.ppl_ratio)
    true
    (r.Quant_eval.ppl_ratio > 0.8 && r.Quant_eval.ppl_ratio < 1.25);
  Alcotest.(check bool)
    (Printf.sprintf "hidden cosine %.3f" r.Quant_eval.hidden_cosine)
    true
    (r.Quant_eval.hidden_cosine > 0.95);
  Alcotest.(check bool)
    (Printf.sprintf "top-1 agreement %.2f" r.Quant_eval.top1_agreement)
    true
    (r.Quant_eval.top1_agreement > 0.5)

let test_quant_eval_counts () =
  let r = Quant_eval.evaluate (Rng.create 100) Config.tiny in
  Alcotest.(check int) "sequences" 8 r.Quant_eval.sequences;
  Alcotest.(check int) "scored = seqs x (len-1)" 88 r.Quant_eval.tokens_scored

let test_weights_quantize_idempotent () =
  let w = Weights.random ~quantize_fp4:false (Rng.create 101) Config.tiny in
  let q1 = Weights.quantize w in
  let q2 = Weights.quantize q1 in
  let diff =
    Mat.max_abs_diff q1.Weights.layers.(0).Weights.wq q2.Weights.layers.(0).Weights.wq
  in
  Alcotest.(check (float 1e-12)) "second pass is identity" 0.0 diff

let make seed config = Transformer.create (Weights.random (Rng.create seed) config)

(* --- Speculative decoding ------------------------------------------------- *)

let test_spec_matches_target_greedy () =
  (* The output must be exactly the target's greedy sequence, whatever the
     draft proposes. *)
  let target = make 40 Config.tiny in
  let draft = make 41 Config.tiny_dense in
  (* tiny_dense shares the vocab (64). *)
  let out, stats =
    Speculative.generate ~target ~draft ~prompt:[ 1; 2 ] ~max_new_tokens:10
      ~lookahead:3 ()
  in
  let reference = make 40 Config.tiny in
  let pure =
    Transformer.generate (Rng.create 0) reference ~prompt:[ 1; 2 ] ~max_new_tokens:10
      Sampler.Greedy
  in
  Alcotest.(check (list int)) "identical to target greedy" pure out;
  Alcotest.(check int) "produced all" 10 stats.Speculative.produced

let test_spec_self_draft_accepts_everything () =
  let target = make 42 Config.tiny in
  let _, stats =
    Speculative.generate ~target ~draft:(Transformer.fork target) ~prompt:[ 5 ]
      ~max_new_tokens:12 ~lookahead:3 ()
  in
  Alcotest.(check (float 1e-9)) "acceptance 1.0" 1.0 stats.Speculative.acceptance_rate;
  Alcotest.(check bool)
    (Printf.sprintf "%.1f tokens/pass = lookahead+1" stats.Speculative.tokens_per_pass)
    true
    (Thelp.close ~rel:1e-9 stats.Speculative.tokens_per_pass 4.0)

let test_spec_fewer_passes_than_tokens () =
  let target = make 43 Config.tiny in
  let _, stats =
    Speculative.generate ~target ~draft:(Transformer.fork target) ~prompt:[ 9 ]
      ~max_new_tokens:12 ~lookahead:2 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d passes < 12 tokens" stats.Speculative.target_passes)
    true
    (stats.Speculative.target_passes * 3 <= 12)

let test_spec_stats_consistent () =
  let target = make 44 Config.tiny in
  let draft = make 45 Config.tiny_dense in
  let out, stats =
    Speculative.generate ~target ~draft ~prompt:[ 3 ] ~max_new_tokens:9 ~lookahead:4 ()
  in
  Alcotest.(check int) "emitted = produced" (List.length out) stats.Speculative.produced;
  Alcotest.(check bool) "acceptance in [0,1]" true
    (stats.Speculative.acceptance_rate >= 0.0 && stats.Speculative.acceptance_rate <= 1.0)

let test_spec_validation () =
  let target = make 46 Config.tiny in
  let draft = make 47 Config.tiny_dense in
  Alcotest.(check bool) "zero lookahead rejected" true
    (try
       ignore
         (Speculative.generate ~target ~draft ~prompt:[ 1 ] ~max_new_tokens:4
            ~lookahead:0 ());
       false
     with Invalid_argument _ -> true)

let test_spec_throughput_model () =
  let rows = Ablation.speculative_sweep Config.gpt_oss_120b in
  Alcotest.(check int) "four lookaheads" 4 (List.length rows);
  let by_k k = List.find (fun r -> r.Ablation.lookahead = k) rows in
  (* tokens/pass grows with lookahead but saturates at 1/(1-a)+1. *)
  Alcotest.(check bool) "expected tokens grow" true
    ((by_k 8).Ablation.expected_tokens_per_pass > (by_k 1).Ablation.expected_tokens_per_pass);
  (* Speculation must beat plain decode at a=0.7 (the win is bounded by
     the per-token projection/attention work the chunk still serializes). *)
  Alcotest.(check bool)
    (Printf.sprintf "k=4 speedup %.2fx" (by_k 4).Ablation.spec_speedup)
    true
    ((by_k 4).Ablation.spec_speedup > 1.3);
  Alcotest.(check bool) "all lookaheads beat plain decode" true
    (List.for_all (fun r -> r.Ablation.spec_speedup > 1.0) rows)

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

let test_score_negative_loglik () =
  let t = make_tiny ~quantize:true 50 in
  let s = Transformer.score t [ 1; 2; 3; 4 ] in
  Alcotest.(check bool) (Printf.sprintf "score %.2f < 0" s) true (s < 0.0)

let test_score_greedy_sequence_likelier () =
  (* The greedy continuation must score at least as well as a perturbed one. *)
  let t = make_tiny ~quantize:true 51 in
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
  let t = make_tiny ~quantize:true 52 in
  let p = Transformer.perplexity t [ 1; 2; 3; 4; 5 ] in
  (* Random weights can be worse than uniform, so perplexity may exceed
     the vocabulary size — but it must be finite and > 1. *)
  Alcotest.(check bool) (Printf.sprintf "ppl %.1f sane" p) true
    (p > 1.0 && Float.is_finite p && p < 1e4)

let test_embed_shape_and_determinism () =
  let t = make_tiny ~quantize:true 53 in
  let e1 = Transformer.embed t [ 1; 2; 3 ] in
  let e2 = Transformer.embed t [ 1; 2; 3 ] in
  Alcotest.(check int) "hidden width" Config.tiny.Config.hidden (Array.length e1);
  Alcotest.(check (float 0.0)) "deterministic" 0.0 (Vec.max_abs_diff e1 e2);
  let e3 = Transformer.embed t [ 9; 8; 7 ] in
  Alcotest.(check bool) "different text, different embedding" true
    (Vec.max_abs_diff e1 e3 > 1e-9)

let test_score_validation () =
  let t = make_tiny ~quantize:true 54 in
  Alcotest.(check bool) "one token rejected" true
    (try
       ignore (Transformer.score t [ 1 ]);
       false
     with Invalid_argument _ -> true)

let config = Config.gpt_oss_120b

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
    (a > 0.0 && a < 0.15 *. Paper.(value (find "Table 1" "HN Array area")))

(* --- fork ------------------------------------------------------------------ *)

let test_fork_independent () =
  let a = make_tiny ~quantize:true 1 in
  ignore (Transformer.prefill a [ 1; 2; 3 ]);
  let b = Transformer.fork a in
  Alcotest.(check int) "same position" (Transformer.position a) (Transformer.position b);
  (* Diverge: advancing b must not disturb a. *)
  let la_before = Transformer.forward (Transformer.fork a) ~token:5 in
  ignore (Transformer.forward b ~token:9);
  ignore (Transformer.forward b ~token:9);
  let la_after = Transformer.forward (Transformer.fork a) ~token:5 in
  Alcotest.(check (float 0.0)) "a untouched" 0.0 (Vec.max_abs_diff la_before la_after)

let test_fork_equals_replay () =
  let a = make_tiny ~quantize:true 2 in
  ignore (Transformer.prefill a [ 4; 5 ]);
  let b = Transformer.fork a in
  let via_fork = Transformer.forward b ~token:6 in
  let fresh = make_tiny ~quantize:true 2 in
  let via_replay = Transformer.prefill fresh [ 4; 5; 6 ] in
  Alcotest.(check (float 0.0)) "fork = replay" 0.0 (Vec.max_abs_diff via_fork via_replay)

let test_fork_deep_diverges () =
  (* Forked at position 24, after the flat KV buffers have grown several
     times and with room left in them: the two continuations append into
     the same offsets, interleaved, so a fork that shared its buffers would
     read the other's keys.  Each must equal a fresh replay of its own
     sequence. *)
  let prefix = List.init 24 (fun i -> ((i * 5) + 1) mod 64) in
  let a = make_tiny ~quantize:true 3 in
  ignore (Transformer.prefill a prefix);
  let b = Transformer.fork a in
  let cont_a = [ 9; 9; 9; 9 ] and cont_b = [ 40; 41; 42; 43 ] in
  let la = ref [||] and lb = ref [||] in
  List.iter2
    (fun ta tb ->
      la := Transformer.forward a ~token:ta;
      lb := Transformer.forward b ~token:tb)
    cont_a cont_b;
  let replay cont = Transformer.prefill (make_tiny ~quantize:true 3) (prefix @ cont) in
  Alcotest.(check (float 0.0)) "a = replay" 0.0 (Vec.max_abs_diff !la (replay cont_a));
  Alcotest.(check (float 0.0)) "b = replay" 0.0 (Vec.max_abs_diff !lb (replay cont_b));
  Alcotest.(check bool) "continuations diverge" true (Vec.max_abs_diff !la !lb > 1e-6)

let suites =
  [
    ( "config",
      [
        Alcotest.test_case "gpt-oss param count" `Quick test_gpt_oss_param_count;
        Alcotest.test_case "gpt-oss shapes" `Quick test_gpt_oss_shapes;
        Alcotest.test_case "hardwired per chip" `Quick test_gpt_oss_hardwired_per_chip;
        Alcotest.test_case "router fraction" `Quick (Thelp.paper "Side claims" "§5.1 router share of weights");
        Alcotest.test_case "gpt-oss 20B" `Quick test_gpt_oss_20b;
        Alcotest.test_case "external models" `Quick test_external_models;
        Alcotest.test_case "validation" `Quick test_config_validation;
      ] );
    ( "weights",
      [
        Alcotest.test_case "count matches params" `Quick test_weights_count_matches_params;
        Alcotest.test_case "quantized are fp4" `Quick test_weights_quantized_are_fp4;
        Alcotest.test_case "rejects external" `Quick test_weights_rejects_external;
      ] );
    ( "rope",
      [
        Alcotest.test_case "pos 0 identity" `Quick test_rope_pos0_identity;
        Alcotest.test_case "preserves norm" `Quick test_rope_preserves_norm;
        Alcotest.test_case "relative position" `Quick test_rope_relative_position;
      ] );
    ( "kv_cache",
      [
        Alcotest.test_case "basic" `Quick test_kv_cache_basic;
        Alcotest.test_case "clear" `Quick test_kv_cache_clear;
        Alcotest.test_case "bytes per position" `Quick test_kv_bytes_per_position;
      ] );
    ( "sampler",
      [
        Alcotest.test_case "greedy" `Quick test_sampler_greedy;
        Alcotest.test_case "temperature distribution" `Slow test_sampler_temperature_distribution;
        Alcotest.test_case "top-k restricts" `Quick test_sampler_topk_restricts;
        Alcotest.test_case "log prob" `Quick test_sampler_log_prob;
        Alcotest.test_case "validation" `Quick test_sampler_validation;
      ] );
    ( "transformer",
      [
        Alcotest.test_case "forward shape" `Quick test_forward_shape;
        Alcotest.test_case "deterministic" `Quick test_forward_deterministic;
        Alcotest.test_case "context matters" `Quick test_forward_context_matters;
        Alcotest.test_case "oov" `Quick test_forward_oov;
        Alcotest.test_case "reset" `Quick test_reset_reproduces;
        Alcotest.test_case "expert load" `Quick test_expert_load_topk;
        Alcotest.test_case "dense ffn" `Quick test_dense_ffn_path;
        Alcotest.test_case "generate" `Quick test_generate_terminates;
        Alcotest.test_case "greedy prefix" `Quick test_generate_greedy_prefix;
        Alcotest.test_case "quantized model" `Quick test_quantized_model_runs;
      ] );
    Thelp.qsuite "transformer properties" [ prop_prefill_equals_forwards ];
    ( "hn_linear",
      [
        Alcotest.test_case "exact on quantized values" `Quick test_hn_linear_exactness_vs_quantized;
        Alcotest.test_case "close to float" `Quick test_hn_linear_close_to_float;
        Alcotest.test_case "zero input" `Quick test_hn_linear_zero_input;
        Alcotest.test_case "report" `Quick test_hn_linear_report;
      ] );
    ( "quantization",
      [
        Alcotest.test_case "fidelity" `Slow test_quant_eval_fidelity;
        Alcotest.test_case "counts" `Quick test_quant_eval_counts;
        Alcotest.test_case "idempotent" `Quick test_weights_quantize_idempotent;
      ] );
    ( "speculative",
      [
        Alcotest.test_case "matches target greedy" `Quick test_spec_matches_target_greedy;
        Alcotest.test_case "self-draft accepts all" `Quick test_spec_self_draft_accepts_everything;
        Alcotest.test_case "fewer passes" `Quick test_spec_fewer_passes_than_tokens;
        Alcotest.test_case "stats consistent" `Quick test_spec_stats_consistent;
        Alcotest.test_case "validation" `Quick test_spec_validation;
        Alcotest.test_case "throughput model" `Quick test_spec_throughput_model;
      ] );
    ( "conditional-decoding",
      [
        Alcotest.test_case "top-p restricts" `Quick test_top_p_restricts;
        Alcotest.test_case "top-p p=1" `Quick test_top_p_full_mass_is_temperature;
        Alcotest.test_case "top-p normalized" `Quick test_top_p_distribution_normalized;
        Alcotest.test_case "top-p validation" `Quick test_top_p_validation;
      ] );
    Thelp.qsuite "sampling properties" [ prop_top_p_simplex ];
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
    ( "fork",
      [
        Alcotest.test_case "independence" `Quick test_fork_independent;
        Alcotest.test_case "fork = replay" `Quick test_fork_equals_replay;
        Alcotest.test_case "deep fork diverges" `Quick test_fork_deep_diverges;
      ] );
  ]
