open Hnlpu_gates

let tech = Tech.n5

type t = { gemv : Gemv.t; n_macs : int; report : Report.t }

let mac_fa_equiv = Census.fp4_full_mac ~input_bits:8 / Census.full_adder

(* The report depends on the array's width and the GEMV's shape only. *)
let price ~n_macs ~in_features ~out_features ~act_bits =
  let total_macs = in_features * out_features in
  let total_bits = total_macs * 4 in
  (* One tile of weights per access: n_macs 4-bit weights, in an SRAM
     that holds exactly the GEMV's weights. *)
  let sram = Sram.make ~capacity_bytes:((total_bits + 7) / 8) ~word_bits:(n_macs * 4) () in
  let tiles = (total_macs + n_macs - 1) / n_macs in
  (* Read issue + MAC + per-lane accumulation chain across a tile row. *)
  let pipeline_fill =
    let accum_levels =
      Timing.cpa_levels (act_bits + 8) * (in_features / n_macs |> max 1)
    in
    2 + Timing.cycles_of_levels (Timing.fa_levels * 4) + Timing.cycles_of_levels accum_levels
  in
  let macs = float_of_int n_macs in
  let mac_tr = float_of_int (Census.fp4_full_mac ~input_bits:act_bits) in
  let logic_tr = (macs *. mac_tr) +. float_of_int (Census.register (n_macs * 4)) in
  let reads = Sram.reads_to_stream sram ~total_bits in
  let read_energy = float_of_int reads *. Sram.read_energy_j tech sram in
  let mac_energy =
    float_of_int total_macs
    *. float_of_int mac_fa_equiv *. tech.Tech.gate_energy_fj *. 1e-15
  in
  let reg_energy =
    float_of_int reads *. float_of_int (n_macs * 4)
    *. tech.Tech.flop_energy_fj *. 1e-15
  in
  {
    Report.design = "MAC array (MA)";
    transistors = logic_tr;
    sram_bytes = Sram.capacity_bytes sram;
    (* Figure 12 convention: SRAM macro only. *)
    area_mm2 = Sram.area_mm2 tech sram;
    cycles = tiles + pipeline_fill;
    dynamic_energy_j = read_energy +. mac_energy +. reg_energy;
    leakage_power_w =
      Sram.leakage_w tech sram +. (logic_tr *. tech.Tech.leakage_w_per_transistor);
  }

let ppa (b : Bank.t) =
  price ~n_macs:1024 ~in_features:b.Bank.in_features ~out_features:b.Bank.out_features
    ~act_bits:b.Bank.act_bits

let make ?(n_macs = 1024) (g : Gemv.t) =
  if n_macs <= 0 then invalid_arg "Mac_array.make: n_macs must be positive";
  let report =
    price ~n_macs ~in_features:g.in_features ~out_features:g.out_features ~act_bits:g.act_bits
  in
  { gemv = g; n_macs; report }

let run t x =
  let g = t.gemv in
  Gemv.check_activations ~caller:"Mac_array.run" g x;
  (* Emulate the tiled execution: the array consumes the flattened
     (neuron, input) MAC stream n_macs at a time, and the tiling must
     reproduce [Gemv.reference] exactly (test_neuron checks it at the
     paper benchmark's size and on random tilings).  Within a tile the
     stream is walked one neuron's run at a time; the neuron being
     summed stays in a register across tiles, and [x] has [n] elements,
     checked above. *)
  let n = g.Gemv.in_features and codes = g.Gemv.codes in
  let total = Gemv.total_macs g in
  let out = Array.make g.Gemv.out_features 0 in
  let o = ref 0 and i = ref 0 and acc = ref 0 in
  let pos = ref 0 in
  while !pos < total do
    let stop = min total (!pos + t.n_macs) in
    (* The stream position is the weight's index in the row-major codes. *)
    while !pos < stop do
      let k0 = !pos and i0 = !i in
      let len = min (stop - k0) (n - i0) in
      acc := !acc + E2m1.dot codes k0 x i0 len;
      pos := k0 + len;
      if i0 + len = n then begin
        out.(!o) <- !acc;
        acc := 0;
        i := 0;
        incr o
      end
      else i := i0 + len
    done
  done;
  (out, t.report)
