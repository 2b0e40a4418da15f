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

let test_router_fraction () =
  (* §5.1: router weights are ~0.01% of the total, justifying replication. *)
  let f = Params.router_fraction Config.gpt_oss_120b in
  Alcotest.(check bool) (Printf.sprintf "router fraction %.5f%%" (f *. 100.0)) true
    (f > 0.5e-4 && f < 2.0e-4)

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
  let lp = Sampler.log_prob (Sampler.Top_k (1, 1.0)) [| 1.0; 2.0 |] 0 in
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

let test_generate_stop_token () =
  let t = make_tiny 18 in
  (* Greedy decoding is deterministic: find the first emitted token, then ask
     for it as the stop token — generation must halt immediately. *)
  let t2 = make_tiny 18 in
  let first =
    match
      Transformer.generate (Rng.create 0) t2 ~prompt:[ 2 ] ~max_new_tokens:1 Sampler.Greedy
    with
    | [ tok ] -> tok
    | _ -> Alcotest.fail "expected one token"
  in
  let toks =
    Transformer.generate (Rng.create 0) t ~prompt:[ 2 ] ~max_new_tokens:8 ~stop:first
      Sampler.Greedy
  in
  Alcotest.(check (list int)) "stops before emitting" [] toks

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

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "hnlpu_model"
    [
      ( "config",
        [
          Alcotest.test_case "gpt-oss param count" `Quick test_gpt_oss_param_count;
          Alcotest.test_case "gpt-oss shapes" `Quick test_gpt_oss_shapes;
          Alcotest.test_case "hardwired per chip" `Quick test_gpt_oss_hardwired_per_chip;
          Alcotest.test_case "router fraction" `Quick test_router_fraction;
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
          Alcotest.test_case "stop token" `Quick test_generate_stop_token;
          Alcotest.test_case "quantized model" `Quick test_quantized_model_runs;
        ] );
      qsuite "transformer properties" [ prop_prefill_equals_forwards ];
      ( "hn_linear",
        [
          Alcotest.test_case "exact on quantized values" `Quick test_hn_linear_exactness_vs_quantized;
          Alcotest.test_case "close to float" `Quick test_hn_linear_close_to_float;
          Alcotest.test_case "zero input" `Quick test_hn_linear_zero_input;
          Alcotest.test_case "report" `Quick test_hn_linear_report;
        ] );
    ]
