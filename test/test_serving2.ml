(* Tests for speculative decoding (functional + throughput model). *)

open Hnlpu

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

let () =
  Alcotest.run "hnlpu_serving2"
    [
      ( "speculative",
        [
          Alcotest.test_case "matches target greedy" `Quick test_spec_matches_target_greedy;
          Alcotest.test_case "self-draft accepts all" `Quick test_spec_self_draft_accepts_everything;
          Alcotest.test_case "fewer passes" `Quick test_spec_fewer_passes_than_tokens;
          Alcotest.test_case "stats consistent" `Quick test_spec_stats_consistent;
          Alcotest.test_case "validation" `Quick test_spec_validation;
          Alcotest.test_case "throughput model" `Quick test_spec_throughput_model;
        ] );
    ]
