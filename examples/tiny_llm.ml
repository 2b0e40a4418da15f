(* Token-in-token-out, end to end, three ways.

   The paper's HNLPU "receives token IDs and generates token IDs, operating
   without a software stack".  This example runs the same tiny MoE
   transformer through:

     1. the single-machine float reference (Transformer),
     2. the 16-chip distributed dataflow of §5/Appendix A (Dataflow), and
     3. a projection computed on the bit-serial Hardwired-Neuron machine
        (Hn_linear over Metal_embedding),

   and shows (1) and (2) produce the same greedy token stream while (3)
   tracks the float projection within quantization error.

   Run with: dune exec examples/tiny_llm.exe *)

open Hnlpu

let () =
  let w = Weights.random (Rng.create 271828) Config.tiny_hnlpu in
  Printf.printf "Model: %s — %d parameters, %d layers, %d experts (top-%d)\n\n"
    Config.tiny_hnlpu.Config.name (Weights.count_params w)
    Config.tiny_hnlpu.Config.num_layers Config.tiny_hnlpu.Config.experts
    Config.tiny_hnlpu.Config.experts_per_token;

  (* 1 & 2: greedy decode through both execution paths. *)
  let reference = Transformer.create w in
  let distributed = Dataflow.create w in
  let prompt = [ 7; 3; 42 ] in
  Printf.printf "prompt: %s\n" (String.concat " " (List.map string_of_int prompt));
  let steps = 12 in
  let ref_toks = Buffer.create 64 and dist_toks = Buffer.create 64 in
  let tok_r = ref 0 and tok_d = ref 0 in
  List.iter
    (fun t ->
      tok_r := Vec.argmax (Transformer.forward reference ~token:t);
      tok_d := Vec.argmax (Dataflow.forward distributed ~token:t))
    prompt;
  for _ = 1 to steps do
    Buffer.add_string ref_toks (string_of_int !tok_r ^ " ");
    Buffer.add_string dist_toks (string_of_int !tok_d ^ " ");
    tok_r := Vec.argmax (Transformer.forward reference ~token:!tok_r);
    tok_d := Vec.argmax (Dataflow.forward distributed ~token:!tok_d)
  done;
  Printf.printf "reference  : %s\n" (Buffer.contents ref_toks);
  Printf.printf "distributed: %s\n" (Buffer.contents dist_toks);
  Printf.printf "(identical: %b)\n\n"
    (Buffer.contents ref_toks = Buffer.contents dist_toks);

  (* The distributed run's communication ledger. *)
  let c = Dataflow.collectives distributed in
  Printf.printf
    "collectives used: %d column all-reduces, %d column reduces,\n\
    \                  %d row all-reduces, %d column all-gathers,\n\
    \                  %d all-chip all-reduces\n\n"
    c.Dataflow.col_all_reduce c.Dataflow.col_reduce c.Dataflow.row_all_reduce
    c.Dataflow.col_all_gather c.Dataflow.all_chip_all_reduce;

  (* 3: one projection on actual HN bit-serial hardware arithmetic. *)
  let x = Transformer.hidden_state reference in
  let hn = Hn_linear.of_matrix w.Weights.layers.(0).Weights.wq in
  let y_hw = Hn_linear.apply hn x in
  let y_fp = Mat.gemv (Hn_linear.dequantized hn) x in
  let report = Hn_linear.report hn in
  Printf.printf "HN-machine Wq projection: max |hw - float| = %.2e\n"
    (Vec.max_abs_diff y_hw y_fp);
  Printf.printf "  (bank: %.4f mm2, %d cycles per GEMV at 1 GHz)\n"
    report.Neuron_report.area_mm2 report.Neuron_report.cycles;

  (* Expert routing statistics — the sparsity behind the HN array's power. *)
  let load = Transformer.expert_load reference in
  let total = Array.fold_left ( + ) 0 load in
  Printf.printf "\nexpert activations (total %d over %d tokens x %d layers x top-%d):\n"
    total (steps + List.length prompt) Config.tiny_hnlpu.Config.num_layers
    Config.tiny_hnlpu.Config.experts_per_token;
  Array.iteri (fun e n -> Printf.printf "  expert %2d -> %d\n" e n) load
