(* Quickstart: build a Hardwired-Neuron (Metal-Embedding) bank from random
   FP4 weights, run the bit-serial machine on an activation vector, check it
   against the reference dot products, and print the PPA comparison against
   Cell-Embedding and a conventional MAC array — the paper's Figures 12/13
   in miniature.

   Run with: dune exec examples/quickstart.exe *)

open Hnlpu

let () =
  let rng = Rng.create 1 in

  (* 1. The operator: y = x . W with a 256x32 FP4 weight matrix. *)
  let gemv = Gemv.random rng ~in_features:256 ~out_features:32 ~act_bits:8 in
  let x = Gemv.random_activations rng gemv in

  (* 2. Build the three machines over the same weights. *)
  let me = Metal_embedding.make gemv in
  let ce = Cell_embedding.make gemv in
  let ma = Mac_array.make ~n_macs:256 gemv in

  (* 3. Execute.  All three must agree exactly with the reference. *)
  let reference = Gemv.reference gemv x in
  let me_out, me_report = Metal_embedding.run me x in
  let ce_out, ce_report = Cell_embedding.run ce x in
  let ma_out, ma_report = Mac_array.run ma x in
  assert (me_out = reference && ce_out = reference && ma_out = reference);
  Printf.printf "All three machines agree with the reference on %d outputs.\n"
    (Array.length reference);
  Printf.printf "y[0..3] (half-units) = %d %d %d %d\n\n" reference.(0)
    reference.(1) reference.(2) reference.(3);

  (* 4. How the weights became wires: the ME routing view. *)
  let bank = Neuron_bank.of_gemv gemv in
  Printf.printf "ME structure: 16 POPCNT regions, %d ports each (with slack);\n"
    bank.Neuron_bank.capacity;
  Printf.printf "bit-serial over %d planes (int8 activations).\n\n"
    bank.Neuron_bank.act_bits;

  (* 5. PPA at the paper's 5 nm point. *)
  Table.print ~title:"PPA at 5 nm (one GEMV)"
    (Neuron_report.to_table Tech.n5 [ ma_report; ce_report; me_report ]);
  Printf.printf
    "\nNote how CE pays ~%.0fx the SRAM baseline's area while ME is ~%.1fx —\n\
     the density step that makes hardwiring a 120B model feasible (paper §3).\n"
    (Neuron_report.area_ratio ce_report ~baseline:ma_report)
    (Neuron_report.area_ratio me_report ~baseline:ma_report)
