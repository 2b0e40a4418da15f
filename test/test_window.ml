(* Tests for sliding-window attention: functional behaviour in the
   reference transformer, equivalence through the 16-chip dataflow, and
   the performance ablation. *)

open Hnlpu

let windowed_tiny = { Config.tiny with Config.name = "tiny-sw"; sliding_window = Some 3 }

let windowed_tiny_hnlpu =
  { Config.tiny_hnlpu with Config.name = "tiny-hnlpu-sw"; sliding_window = Some 3 }

(* --- Config ------------------------------------------------------------------ *)

let test_layer_window_alternates () =
  let c = Config.gpt_oss_120b_sw in
  Alcotest.(check (option int)) "layer 0 windowed" (Some 128)
    (Config.layer_window c ~layer:0);
  Alcotest.(check (option int)) "layer 1 full" None (Config.layer_window c ~layer:1);
  Alcotest.(check (option int)) "unset config: all full" None
    (Config.layer_window Config.gpt_oss_120b ~layer:0)

let test_window_validation () =
  Alcotest.(check bool) "zero window rejected" true
    (try
       Config.validate { Config.tiny with Config.sliding_window = Some 0 };
       false
     with Invalid_argument _ -> true)

(* --- Functional behaviour ------------------------------------------------------ *)

let test_window_changes_long_context_only () =
  (* Within the window, windowed and full models agree exactly; beyond it
     they diverge (old positions are masked on even layers). *)
  let w_full = Weights.random (Rng.create 30) Config.tiny in
  let w_sw = { w_full with Weights.config = windowed_tiny } in
  let full = Transformer.create w_full and sw = Transformer.create w_sw in
  (* First 3 tokens: every layer sees <= 3 positions, identical. *)
  let short = [ 1; 2; 3 ] in
  let lf = Transformer.prefill full short and ls = Transformer.prefill sw short in
  Alcotest.(check (float 0.0)) "identical within window" 0.0 (Vec.max_abs_diff lf ls);
  (* Fourth token: the windowed even layers drop position 0. *)
  let lf4 = Transformer.forward full ~token:4 in
  let ls4 = Transformer.forward sw ~token:4 in
  Alcotest.(check bool) "diverges past the window" true
    (Vec.max_abs_diff lf4 ls4 > 1e-9)

let test_window_exact_semantics () =
  (* A windowed model's logits must equal a full model fed only the
     windowed suffix — when the model has a single windowed layer and no
     position dependence beyond attention... RoPE makes absolute positions
     matter, so instead check the internal consistency: windowed attention
     over w tokens equals full attention when context <= w at all times. *)
  let config_w = { windowed_tiny with Config.sliding_window = Some 10 } in
  let w_full = Weights.random (Rng.create 31) Config.tiny in
  let w_sw = { w_full with Weights.config = config_w } in
  let full = Transformer.create w_full and sw = Transformer.create w_sw in
  let prompt = [ 5; 6; 7; 8 ] in
  let lf = Transformer.prefill full prompt and ls = Transformer.prefill sw prompt in
  Alcotest.(check (float 0.0)) "window >= context is full attention" 0.0
    (Vec.max_abs_diff lf ls)

(* --- Dataflow equivalence -------------------------------------------------------- *)

let test_windowed_dataflow_matches_reference () =
  let w = Weights.random (Rng.create 32) windowed_tiny_hnlpu in
  let reference = Transformer.create w in
  let distributed = Dataflow.create w in
  (* Long enough that the window actually masks (window 3, 7 tokens). *)
  let toks = [ 3; 14; 15; 9; 2; 6; 5 ] in
  List.iter
    (fun tok ->
      let lr = Transformer.forward reference ~token:tok in
      let ld = Dataflow.forward distributed ~token:tok in
      let scale = Vec.norm2 lr /. sqrt (float_of_int (Array.length lr)) in
      let err = Vec.max_abs_diff lr ld /. Float.max scale 1e-12 in
      Alcotest.(check bool) (Printf.sprintf "token %d err %.2e" tok err) true
        (err < 1e-4))
    toks

(* The per-position filter a column used before its stripes were read
   from a start index: every stored position is visited and those before
   the window skipped, one head at a time.  Returns each head's
   unnormalised accumulator and (max, sum), laid out as
   [Attention.pass] writes them. *)
let filtered_partials ~q ~positions ~ks ~vs ~stride ~kvo ~d ~heads ~first_pos =
  let acc = Array.make (heads * d) 0.0 and stats = Array.make (2 * heads) 0.0 in
  let scale = 1.0 /. sqrt (float_of_int d) in
  for h = 0 to heads - 1 do
    let m = ref neg_infinity and z = ref 0.0 in
    Array.iteri
      (fun j pos ->
        if pos >= first_pos then begin
          let base = (j * stride) + kvo in
          let dot = ref 0.0 in
          for i = 0 to d - 1 do
            dot := !dot +. (q.((h * d) + i) *. ks.(base + i))
          done;
          let s = !dot *. scale in
          if s <= !m then begin
            let w = exp (s -. !m) in
            for i = 0 to d - 1 do
              acc.((h * d) + i) <- acc.((h * d) + i) +. (w *. vs.(base + i))
            done;
            z := !z +. w
          end
          else begin
            let corr = exp (!m -. s) in
            for i = 0 to d - 1 do
              acc.((h * d) + i) <- (acc.((h * d) + i) *. corr) +. vs.(base + i)
            done;
            z := (!z *. corr) +. 1.0;
            m := s
          end
        end)
      positions;
    stats.(2 * h) <- !m;
    stats.((2 * h) + 1) <- !z
  done;
  (acc, stats)

let test_stripe_start_index_matches_filter () =
  (* A chip's stripe holds every fourth position, ascending; from the
     first position inside the window, one pass gives bit for bit what
     the filter gave, for every window start and either KV head of a
     two-head stripe.  Head dims 8 and 6 leave the pass's four-way dot
     product no tail and a tail of 2; an odd one is rejected. *)
  let rng = Rng.create 33 in
  let heads = 2 and n = 24 in
  let positions = Array.init n (fun j -> (4 * j) + 1) in
  let bits a = Array.map Int64.bits_of_float a in
  let check ~d ~first_pos ~kvo =
    let stride = 2 * d in
    let ks = Vec.gaussian rng (n * stride) and vs = Vec.gaussian rng (n * stride) in
    let q = Vec.gaussian rng (heads * d) in
    let first = ref 0 in
    while !first < n && positions.(!first) < first_pos do
      incr first
    done;
    let acc = Array.make (heads * d) nan and stats = Array.make (2 * heads) nan in
    Attention.pass ~q ~qo:0 ~heads ~head_dim:d ~ks ~vs ~stride ~kvo ~first:!first ~stop:n ~acc
      ~ao:0 ~stats ~so:0;
    let acc', stats' = filtered_partials ~q ~positions ~ks ~vs ~stride ~kvo ~d ~heads ~first_pos in
    let label = Printf.sprintf "d %d, window from %d, kvo %d" d first_pos kvo in
    Alcotest.(check (array int64)) (label ^ ": accumulators") (bits acc') (bits acc);
    Alcotest.(check (array int64)) (label ^ ": (max, sum)") (bits stats') (bits stats)
  in
  List.iter
    (fun d ->
      for first_pos = 0 to (4 * n) + 2 do
        check ~d ~first_pos ~kvo:0;
        check ~d ~first_pos ~kvo:d
      done)
    [ 8; 6 ];
  Alcotest.check_raises "odd head_dim"
    (Invalid_argument "Attention.pass: odd head_dim or range out of bounds") (fun () ->
      Attention.pass ~q:[| 0.0 |] ~qo:0 ~heads:1 ~head_dim:1 ~ks:[| 0.0 |] ~vs:[| 0.0 |]
        ~stride:1 ~kvo:0 ~first:0 ~stop:1 ~acc:[| 0.0 |] ~ao:0 ~stats:[| 0.0; 0.0 |] ~so:0)

(* --- Performance ------------------------------------------------------------------- *)

let test_window_speeds_up_long_context () =
  let full = Perf.token_latency_s Config.gpt_oss_120b ~context:524288 in
  let sw = Perf.token_latency_s Config.gpt_oss_120b_sw ~context:524288 in
  Alcotest.(check bool)
    (Printf.sprintf "sw %.0fus < full %.0fus" (sw *. 1e6) (full *. 1e6))
    true (sw < 0.85 *. full)

let test_window_no_effect_short_context () =
  let full = Perf.token_latency_s Config.gpt_oss_120b ~context:128 in
  let sw = Perf.token_latency_s Config.gpt_oss_120b_sw ~context:128 in
  Alcotest.(check bool) "identical at tiny context" true
    (Thelp.close ~rel:1e-9 full sw)

let test_window_ablation_sweep () =
  let rows = Ablation.sliding_window_sweep () in
  Alcotest.(check int) "six contexts" 6 (List.length rows);
  let speedup c =
    (List.find (fun r -> r.Ablation.window_context = c) rows).Ablation.speedup
  in
  Alcotest.(check bool) "speedup grows with context" true
    (speedup 524288 > speedup 65536 && speedup 65536 > speedup 2048);
  Alcotest.(check bool)
    (Printf.sprintf "512K speedup %.2fx substantial" (speedup 524288))
    true
    (speedup 524288 > 1.2)

let suites =
  [
    ( "config",
      [
        Alcotest.test_case "alternating layers" `Quick test_layer_window_alternates;
        Alcotest.test_case "validation" `Quick test_window_validation;
      ] );
    ( "functional",
      [
        Alcotest.test_case "masks only long context" `Quick test_window_changes_long_context_only;
        Alcotest.test_case "window >= context" `Quick test_window_exact_semantics;
      ] );
    ( "dataflow",
      [
        Alcotest.test_case "windowed distributed = reference" `Quick
          test_windowed_dataflow_matches_reference;
        Alcotest.test_case "stripe start index = per-position filter" `Quick
          test_stripe_start_index_matches_filter;
      ] );
    ( "performance",
      [
        Alcotest.test_case "long-context speedup" `Quick test_window_speeds_up_long_context;
        Alcotest.test_case "short-context no-op" `Quick test_window_no_effect_short_context;
        Alcotest.test_case "ablation sweep" `Quick test_window_ablation_sweep;
      ] );
  ]
