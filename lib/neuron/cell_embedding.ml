open Hnlpu_fp4
open Hnlpu_gates

let tech = Tech.n5

type t = { gemv : Gemv.t; report : Report.t }

(* Wide parallel trees see uneven arrival times; spurious transitions
   multiply the switched capacitance.  1.8x is a standard planning figure. *)
let glitch_factor = 1.8

let ppa (b : Bank.t) =
  let n = b.Bank.in_features and m = b.Bank.out_features in
  (* Product of an act_bits two's-complement activation and a half-unit
     constant (|c| <= 12) fits in act_bits + 4 bits. *)
  let product_bits = b.Bank.act_bits + 4 in
  (* One neuron's product-reduction tree. *)
  let tree_stats = Csa.tree ~width:product_bits ~operands:n in
  (* One multiply-by-constant unit per weight, costed per code. *)
  let cost c = Census.fp4_constant_multiplier ~input_bits:b.Bank.act_bits (Fp4.of_code c) in
  let mult_transistors = ref 0 in
  Array.iteri (fun c k -> mult_transistors := !mult_transistors + (k * cost c)) b.Bank.histogram;
  let tree_tr = Census.csa_cost tree_stats * m in
  let out_regs = Census.register (product_bits + 12) * m in
  let transistors = float_of_int (!mult_transistors + tree_tr + out_regs) in
  let fa_ops_per_neuron =
    tree_stats.Csa.full_adders + (tree_stats.Csa.half_adders / 2)
    + tree_stats.Csa.cpa_width
  in
  let dyn =
    ((float_of_int (fa_ops_per_neuron * m) *. glitch_factor)
    +. (float_of_int (n * m) *. 2.0 (* shift-add multiplier activity *)))
    *. tech.Tech.gate_energy_fj *. 1e-15
  in
  {
    Report.design = "Cell-Embedding (CE)";
    transistors;
    sram_bytes = 0;
    area_mm2 = Tech.area_of_transistors tech transistors;
    (* A two-level shift-add multiplier, then the tree. *)
    cycles = Timing.cycles_of_levels ((Timing.fa_levels * 2) + Timing.csa_levels tree_stats);
    dynamic_energy_j = dyn;
    leakage_power_w = transistors *. tech.Tech.leakage_w_per_transistor;
  }

(* CE has no POPCNT regions: slack 16 sizes every region for all
   in_features wires, so the bank is never refused. *)
let make gemv = { gemv; report = ppa (Bank.of_gemv ~slack:16.0 gemv) }

let run t x =
  let g = t.gemv in
  Gemv.check_activations ~caller:"Cell_embedding.run" g x;
  (* Form all products combinationally, then reduce per neuron — the CE
     datapath shape.  Equal to [Gemv.reference] by construction; test_neuron
     checks that at the paper benchmark's size, so the GEMV is not run
     twice here.  [x] has [n] elements, checked above. *)
  let n = g.Gemv.in_features in
  let out = Array.make g.Gemv.out_features 0 in
  for o = 0 to g.Gemv.out_features - 1 do
    out.(o) <- E2m1.dot g.Gemv.codes (o * n) x 0 n
  done;
  (out, t.report)
