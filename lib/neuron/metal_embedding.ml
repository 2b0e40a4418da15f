open Hnlpu_fp4
open Hnlpu_gates

let tech = Tech.n5

type t = {
  gemv : Gemv.t;
  words : int;  (** Packed words per plane. *)
  masks : int array;
      (** The "metal wires", bit-decomposed: word [k] of a plane pairs
          with the five masks from [(o * words + k) * 5], mask [m] the
          inputs of neuron [o] whose weight h has bit [m] of h + 12 set
          (h in half-units, so h + 12 is in 0..24), as
          {!Bitserial.masked_dot} reads them. *)
  report : Report.t;
}

let regions = Bank.regions

(* The largest weight magnitude in half-units: adding it makes every
   weight a non-negative 5-bit number. *)
let offset = 12

let bit_masks = 5

let bits_of k =
  let rec go k acc = if k = 0 then acc else go (k lsr 1) (acc + 1) in
  go k 0

let ppa (b : Bank.t) =
  let m = b.Bank.out_features and planes = b.Bank.act_bits in
  (* Width of a region's popcount result. *)
  let count_bits = bits_of b.Bank.capacity in
  (* One region's tree at full capacity, and the 16-way tree over the
     signed products of (count_bits + 4) bits. *)
  let popcount_stats = Csa.tree ~width:1 ~operands:b.Bank.capacity in
  let tree_stats = Csa.tree ~width:(count_bits + 4) ~operands:regions in
  (* Sum of n products |c*x| <= 12 * 2^(act_bits-1): acc needs
     act_bits + 4 + log2 n + 1 bits. *)
  let accumulator_bits = planes + 5 + bits_of b.Bank.in_features in
  (* Popcount, multiply, 16-way tree and the shifting accumulator are
     pipelined behind the serial planes; the drain is their total depth. *)
  let drain_cycles =
    Timing.cycles_of_levels
      (Timing.csa_levels popcount_stats
      + (Timing.fa_levels * 2) (* count x constant shift-add *)
      + Timing.csa_levels tree_stats
      + Timing.cpa_levels (count_bits + 4 + planes + 4))
  in
  let popcount_tr = Census.popcount_region ~ports:b.Bank.capacity * regions in
  let mult_tr =
    List.fold_left
      (fun acc code ->
        acc + Census.fp4_constant_multiplier ~input_bits:count_bits code)
      0 Fp4.all
  in
  let tree_tr = Census.csa_cost tree_stats in
  let acc_tr = Census.register accumulator_bits + Census.ripple_adder accumulator_bits in
  let transistors = float_of_int ((popcount_tr + mult_tr + tree_tr + acc_tr) * m) in
  (* Only wired ports switch; grounded spare ports are static. *)
  let fa_ops_per_plane_per_neuron =
    b.Bank.in_features
    + (tree_stats.Csa.full_adders + tree_stats.Csa.cpa_width)
    + (regions * count_bits (* multiplier activity *))
  in
  let dyn =
    float_of_int (planes * m)
    *. ((float_of_int fa_ops_per_plane_per_neuron *. tech.Tech.gate_energy_fj)
       +. (float_of_int accumulator_bits *. tech.Tech.flop_energy_fj))
    *. 1e-15
  in
  {
    Report.design = "Metal-Embedding (ME)";
    transistors;
    sram_bytes = 0;
    area_mm2 = Tech.area_of_transistors tech transistors;
    cycles = planes + drain_cycles;
    dynamic_energy_j = dyn;
    leakage_power_w = transistors *. tech.Tech.leakage_w_per_transistor;
  }

let make ?slack gemv =
  (* The bank checks every region's capacity before any mask is built. *)
  let bank = Bank.of_gemv ?slack gemv in
  let n = gemv.Gemv.in_features in
  let words = Bitserial.words_for n in
  let masks = Array.make (gemv.Gemv.out_features * words * bit_masks) 0 in
  (* One neuron's 16 region masks, as the wires are routed; each region
     is then OR-ed into the decomposed masks its offset constant's bits
     name. *)
  let region = Array.make (regions * words) 0 in
  let top = 1 lsl (Bitserial.word_bits - 1) in
  for o = 0 to gemv.Gemv.out_features - 1 do
    Array.fill region 0 (regions * words) 0;
    (* Input i's bit and word, stepped rather than divided out. *)
    let bit = ref 1 and w = ref 0 in
    for k = o * n to ((o + 1) * n) - 1 do
      (* The bank has indexed its 16 counts by every code, so each is
         0..15, and [!w] < words: the index is in bounds. *)
      let r = (Char.code (Bytes.unsafe_get gemv.Gemv.codes k) * words) + !w in
      Array.unsafe_set region r (Array.unsafe_get region r lor !bit);
      if !bit = top then (bit := 1; incr w) else bit := !bit lsl 1
    done;
    for c = 0 to regions - 1 do
      let u = E2m1.half_units.(c) + offset in
      for k = 0 to bit_masks - 1 do
        if (u lsr k) land 1 = 1 then
          for w = 0 to words - 1 do
            let m = (((o * words) + w) * bit_masks) + k in
            masks.(m) <- masks.(m) lor region.((c * words) + w)
          done
      done
    done
  done;
  { gemv; words; masks; report = ppa bank }

let report t = t.report

let run t x =
  let g = t.gemv in
  Gemv.check_activations ~caller:"Metal_embedding.run" g x;
  let bits = g.Gemv.act_bits and words = t.words in
  let planes = Bitserial.packed_planes ~bits x in
  (* Every input is wired to exactly one region, so the offset adds
     [offset] times the plane's popcount to each neuron's plane sum: the
     same for every neuron, it is taken off once per plane. *)
  let bias = ref 0 and count = ref 0 in
  for b = 0 to bits - 1 do
    count := 0;
    for k = b * words to ((b + 1) * words) - 1 do
      count := !count + Bitserial.popcount planes.(k)
    done;
    bias := !bias + (Bitserial.plane_weight ~bits b * offset * !count)
  done;
  let out = Array.make g.Gemv.out_features 0 in
  for o = 0 to g.Gemv.out_features - 1 do
    for b = 0 to bits - 1 do
      (* The 16 POPCNT regions' counts times their offset constants
         h + 12, summed: an identity of the bit-decomposed masks (see
         [masks]). *)
      let plane_sum =
        Bitserial.masked_dot planes ~pos:(b * words) t.masks
          ~mask_pos:(o * words * bit_masks) ~len:words
      in
      (* Shifting accumulator. *)
      out.(o) <- out.(o) + (Bitserial.plane_weight ~bits b * plane_sum)
    done;
    out.(o) <- out.(o) - !bias
  done;
  (out, t.report)
