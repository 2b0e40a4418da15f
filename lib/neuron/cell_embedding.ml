open Hnlpu_fp4
open Hnlpu_gates

let tech = Tech.n5

type t = {
  gemv : Gemv.t;
  tree_stats : Csa.stats;  (** One neuron's product-reduction tree. *)
  product_bits : int;
  mult_transistors : int;
      (** The weight matrix's constant multipliers: depends on the weights
          only, so it is counted once here. *)
}

let make gemv =
  (* Product of an act_bits two's-complement activation and a half-unit
     constant (|c| <= 12) fits in act_bits + 4 bits. *)
  let product_bits = gemv.Gemv.act_bits + 4 in
  let dummy = Array.make gemv.Gemv.in_features 0 in
  let _, tree_stats = Csa.reduce ~width:product_bits dummy in
  let mult_transistors =
    (* One multiply-by-constant unit per weight, costed per code. *)
    let cost =
      Array.init 16 (fun c ->
          Census.fp4_constant_multiplier ~input_bits:gemv.Gemv.act_bits (Fp4.of_code c))
    in
    let total = ref 0 in
    for k = 0 to Bytes.length gemv.Gemv.codes - 1 do
      total := !total + cost.(Char.code (Bytes.unsafe_get gemv.Gemv.codes k))
    done;
    !total
  in
  { gemv; tree_stats; product_bits; mult_transistors }

let cycles t =
  let mult_levels = Timing.fa_levels * 2 in
  Timing.cycles_of_levels (mult_levels + Timing.csa_levels t.tree_stats)

(* Wide parallel trees see uneven arrival times; spurious transitions
   multiply the switched capacitance.  1.8x is a standard planning figure. *)
let glitch_factor = 1.8

let report t =
  let g = t.gemv in
  let n = g.Gemv.in_features and m = g.Gemv.out_features in
  let tree_tr = Census.csa_cost t.tree_stats * m in
  let out_regs = Census.register (t.product_bits + 12) * m in
  let transistors = float_of_int (t.mult_transistors + tree_tr + out_regs) in
  let fa_ops_per_neuron =
    t.tree_stats.Csa.full_adders + (t.tree_stats.Csa.half_adders / 2)
    + t.tree_stats.Csa.cpa_width
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
    cycles = cycles t;
    dynamic_energy_j = dyn;
    leakage_power_w = transistors *. tech.Tech.leakage_w_per_transistor;
  }

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
  (out, report t)
