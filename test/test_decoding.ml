(* Tests for KV-cache forking (Transformer.fork, used by Speculative) and
   the hardware nonlinear units (Vex_sim). *)

open Hnlpu

let make_tiny seed = Transformer.create (Weights.random (Rng.create seed) Config.tiny)

(* --- fork ------------------------------------------------------------------ *)

let test_fork_independent () =
  let a = make_tiny 1 in
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
  let a = make_tiny 2 in
  ignore (Transformer.prefill a [ 4; 5 ]);
  let b = Transformer.fork a in
  let via_fork = Transformer.forward b ~token:6 in
  let fresh = make_tiny 2 in
  let via_replay = Transformer.prefill fresh [ 4; 5; 6 ] in
  Alcotest.(check (float 0.0)) "fork = replay" 0.0 (Vec.max_abs_diff via_fork via_replay)

let test_fork_deep_diverges () =
  (* Forked at position 24, after the flat KV buffers have grown several
     times and with room left in them: the two continuations append into
     the same offsets, interleaved, so a fork that shared its buffers would
     read the other's keys.  Each must equal a fresh replay of its own
     sequence. *)
  let prefix = List.init 24 (fun i -> ((i * 5) + 1) mod 64) in
  let a = make_tiny 3 in
  ignore (Transformer.prefill a prefix);
  let b = Transformer.fork a in
  let cont_a = [ 9; 9; 9; 9 ] and cont_b = [ 40; 41; 42; 43 ] in
  let la = ref [||] and lb = ref [||] in
  List.iter2
    (fun ta tb ->
      la := Transformer.forward a ~token:ta;
      lb := Transformer.forward b ~token:tb)
    cont_a cont_b;
  let replay cont = Transformer.prefill (make_tiny 3) (prefix @ cont) in
  Alcotest.(check (float 0.0)) "a = replay" 0.0 (Vec.max_abs_diff !la (replay cont_a));
  Alcotest.(check (float 0.0)) "b = replay" 0.0 (Vec.max_abs_diff !lb (replay cont_b));
  Alcotest.(check bool) "continuations diverge" true (Vec.max_abs_diff !la !lb > 1e-6)

(* --- Vex_sim hardware nonlinearities ----------------------------------------- *)

let test_exp_accuracy () =
  let e = Vex_sim.max_rel_error_exp ~lo:(-20.0) ~hi:20.0 ~samples:5000 in
  Alcotest.(check bool) (Printf.sprintf "exp err %.2e" e) true (e < 1e-3)

let test_rsqrt_accuracy () =
  let e = Vex_sim.max_rel_error_rsqrt ~lo:1e-6 ~hi:1e6 ~samples:5000 in
  Alcotest.(check bool) (Printf.sprintf "rsqrt err %.2e" e) true (e < 1e-3)

let test_exp_clamps () =
  Alcotest.(check bool) "no overflow" true (Float.is_finite (Vex_sim.exp_hw 1e9));
  Alcotest.(check bool) "no underflow to nan" true (Vex_sim.exp_hw (-1e9) >= 0.0)

let test_sigmoid_properties () =
  Alcotest.(check bool) "sigmoid(0) ~ 0.5" true
    (Float.abs (Vex_sim.sigmoid_hw 0.0 -. 0.5) < 1e-3);
  Alcotest.(check bool) "symmetric" true
    (Float.abs (Vex_sim.sigmoid_hw 2.0 +. Vex_sim.sigmoid_hw (-2.0) -. 1.0) < 1e-3)

let test_softmax_hw_close () =
  let v = [| 1.0; -2.0; 0.3; 4.0 |] in
  let hw = Vex_sim.softmax_hw v and ref_ = Vec.softmax v in
  Alcotest.(check bool) "close" true (Vec.max_abs_diff hw ref_ < 1e-3);
  Alcotest.(check bool) "normalized" true
    (Float.abs (Array.fold_left ( +. ) 0.0 hw -. 1.0) < 1e-9)

let test_rmsnorm_hw_close () =
  let rng = Rng.create 9 in
  let v = Vec.gaussian rng 64 in
  let gain = Array.make 64 1.0 in
  let hw = Vex_sim.rmsnorm_hw ~gain v and ref_ = Vec.rmsnorm ~gain v in
  let err = Vec.max_abs_diff hw ref_ /. Vec.norm2 ref_ in
  Alcotest.(check bool) (Printf.sprintf "err %.2e" err) true (err < 1e-3)

let test_transformer_layer_on_hw_nonlinear () =
  (* Evaluate a full attention-score + SwiGLU path with the hardware units
     and check it tracks the float path. *)
  let rng = Rng.create 10 in
  let gate = Vec.gaussian rng 32 and up = Vec.gaussian rng 32 in
  let hw = Vex_sim.swiglu_hw ~gate ~up and ref_ = Vec.swiglu ~gate ~up in
  Alcotest.(check bool) "swiglu tracks" true (Vec.max_abs_diff hw ref_ < 1e-3)

let prop_exp_monotone =
  QCheck.Test.make ~name:"hardware exp is monotone" ~count:200
    QCheck.(pair (float_range (-50.0) 50.0) (float_range 0.001 1.0))
    (fun (x, dx) -> Vex_sim.exp_hw (x +. dx) >= Vex_sim.exp_hw x)

let prop_rsqrt_newton_converged =
  QCheck.Test.make ~name:"rsqrt satisfies x*y^2 ~ 1" ~count:200
    QCheck.(float_range 1e-3 1e3)
    (fun x ->
      let y = Vex_sim.rsqrt_hw x in
      Float.abs ((x *. y *. y) -. 1.0) < 5e-3)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "hnlpu_decoding"
    [
      ( "fork",
        [
          Alcotest.test_case "independence" `Quick test_fork_independent;
          Alcotest.test_case "fork = replay" `Quick test_fork_equals_replay;
          Alcotest.test_case "deep fork diverges" `Quick test_fork_deep_diverges;
        ] );
      ( "vex-sim",
        [
          Alcotest.test_case "exp accuracy" `Quick test_exp_accuracy;
          Alcotest.test_case "rsqrt accuracy" `Quick test_rsqrt_accuracy;
          Alcotest.test_case "exp clamps" `Quick test_exp_clamps;
          Alcotest.test_case "sigmoid" `Quick test_sigmoid_properties;
          Alcotest.test_case "softmax" `Quick test_softmax_hw_close;
          Alcotest.test_case "rmsnorm" `Quick test_rmsnorm_hw_close;
          Alcotest.test_case "swiglu" `Quick test_transformer_layer_on_hw_nonlinear;
        ] );
      qsuite "vex-sim properties" [ prop_exp_monotone; prop_rsqrt_newton_converged ];
    ]
