open Hnlpu_fp4
open Hnlpu_gates

let tech = Tech.n5

type t = {
  gemv : Gemv.t;
  slack : float;
  capacity : int;  (** Ports per POPCNT region. *)
  words : int;  (** Packed words per plane. *)
  masks : int array;
      (** The "metal wires", bit-decomposed: word [k] of a plane pairs
          with the eight masks from [(o * words + k) * 8], the inputs of
          neuron [o] whose weight is positive (first four) or negative
          (last four) with bit 0..3 of its magnitude set, as
          {!Bitserial.masked_dot} reads them. *)
  load : int array;  (** [load.(c)]: wires in region [c] of the fullest neuron. *)
  count_bits : int;  (** Width of a region's popcount result. *)
  popcount_stats : Csa.stats;  (** One region's tree at full capacity. *)
  tree_stats : Csa.stats;  (** The 16-way product reduction tree. *)
}

let regions = 16

let make ?(slack = 2.0) gemv =
  if slack < 1.0 then invalid_arg "Metal_embedding.make: slack below 1.0";
  let n = gemv.Gemv.in_features in
  let balanced = (n + regions - 1) / regions in
  let capacity = int_of_float (ceil (float_of_int balanced *. slack)) in
  let words = Bitserial.words_for n in
  let masks = Array.make (gemv.Gemv.out_features * words * 8) 0 in
  let load = Array.make regions 0 in
  let counts = Array.make regions 0 in
  (* One neuron's 16 region masks, as the wires are routed; each region
     is then OR-ed into the decomposed masks its constant's sign and
     magnitude bits name. *)
  let region = Array.make (regions * words) 0 in
  let top = 1 lsl (Bitserial.word_bits - 1) in
  for o = 0 to gemv.Gemv.out_features - 1 do
    Array.fill counts 0 regions 0;
    Array.fill region 0 (regions * words) 0;
    (* Input i's bit and word, stepped rather than divided out. *)
    let bit = ref 1 and w = ref 0 in
    for i = 0 to n - 1 do
      let c = Bytes.get_uint8 gemv.Gemv.codes ((o * n) + i) in
      region.((c * words) + !w) <- region.((c * words) + !w) lor !bit;
      counts.(c) <- counts.(c) + 1;
      if !bit = top then (bit := 1; incr w) else bit := !bit lsl 1
    done;
    for c = 0 to regions - 1 do
      let h = E2m1.half_units.(c) in
      for k = 0 to 3 do
        if (abs h lsr k) land 1 = 1 then
          for w = 0 to words - 1 do
            let m = (((o * words) + w) * 8) + k + if h < 0 then 4 else 0 in
            masks.(m) <- masks.(m) lor region.((c * words) + w)
          done
      done
    done;
    Array.iteri
      (fun c k ->
        if k > capacity then
          invalid_arg
            (Printf.sprintf
               "Metal_embedding.make: neuron %d region %d holds %d wires, \
                capacity %d — increase slack"
               o c k capacity);
        load.(c) <- max load.(c) k)
      counts
  done;
  let count_bits =
    let rec bits k acc = if k = 0 then acc else bits (k lsr 1) (acc + 1) in
    bits capacity 0
  in
  let _, popcount_stats = Csa.reduce ~width:1 (Array.make capacity 0) in
  (* 16 signed products of (count_bits + 4) bits. *)
  let _, tree_stats = Csa.reduce ~width:(count_bits + 4) (Array.make regions 0) in
  { gemv; slack; capacity; words; masks; load; count_bits; popcount_stats; tree_stats }

let region_capacity t = t.capacity

let region_load t = Array.copy t.load

let serial_cycles t = t.gemv.Gemv.act_bits

let drain_cycles t =
  (* Popcount, multiply, 16-way tree and the shifting accumulator are
     pipelined behind the serial planes; the drain is their total depth. *)
  let levels =
    Timing.csa_levels t.popcount_stats
    + (Timing.fa_levels * 2) (* count x constant shift-add *)
    + Timing.csa_levels t.tree_stats
    + Timing.cpa_levels (t.count_bits + 4 + t.gemv.Gemv.act_bits + 4)
  in
  Timing.cycles_of_levels levels

let cycles t = serial_cycles t + drain_cycles t

let accumulator_bits t =
  (* Sum of n products |c*x| <= 12 * 2^(act_bits-1): acc needs
     act_bits + 4 + log2 n + 1 bits. *)
  let rec bits k acc = if k = 0 then acc else bits (k lsr 1) (acc + 1) in
  t.gemv.Gemv.act_bits + 5 + bits t.gemv.Gemv.in_features 0

let report t =
  let g = t.gemv in
  let m = g.Gemv.out_features in
  let popcount_tr = Census.popcount_region ~ports:t.capacity * regions in
  let mult_tr =
    List.fold_left
      (fun acc code ->
        acc + Census.fp4_constant_multiplier ~input_bits:t.count_bits code)
      0 Fp4.all
  in
  let tree_tr = Census.csa_cost t.tree_stats in
  let acc_tr =
    Census.register (accumulator_bits t) + Census.ripple_adder (accumulator_bits t)
  in
  let per_neuron = popcount_tr + mult_tr + tree_tr + acc_tr in
  let transistors = float_of_int (per_neuron * m) in
  (* Only wired ports switch; grounded spare ports are static. *)
  let fa_ops_per_plane_per_neuron =
    g.Gemv.in_features
    + (t.tree_stats.Csa.full_adders + t.tree_stats.Csa.cpa_width)
    + (regions * t.count_bits (* multiplier activity *))
  in
  let flop_ops_per_plane_per_neuron = accumulator_bits t in
  let planes = serial_cycles t in
  let dyn =
    float_of_int (planes * m)
    *. ((float_of_int fa_ops_per_plane_per_neuron *. tech.Tech.gate_energy_fj)
       +. (float_of_int flop_ops_per_plane_per_neuron *. tech.Tech.flop_energy_fj))
    *. 1e-15
  in
  {
    Report.design = "Metal-Embedding (ME)";
    transistors;
    sram_bytes = 0;
    area_mm2 = Tech.area_of_transistors tech transistors;
    cycles = cycles t;
    dynamic_energy_j = dyn;
    leakage_power_w = transistors *. tech.Tech.leakage_w_per_transistor;
  }

let run t x =
  let g = t.gemv in
  Gemv.check_activations ~caller:"Metal_embedding.run" g x;
  let bits = g.Gemv.act_bits and words = t.words in
  let planes = Bitserial.packed_planes ~bits x in
  let out = Array.make g.Gemv.out_features 0 in
  for o = 0 to g.Gemv.out_features - 1 do
    for b = 0 to bits - 1 do
      (* The 16 POPCNT regions' counts times their constants, summed: an
         identity of the bit-decomposed masks (see [masks]). *)
      let plane_sum =
        Bitserial.masked_dot planes ~pos:(b * words) t.masks ~mask_pos:(o * words * 8)
          ~len:words
      in
      (* Shifting accumulator. *)
      out.(o) <- out.(o) + (Bitserial.plane_weight ~bits b * plane_sum)
    done
  done;
  (out, report t)
