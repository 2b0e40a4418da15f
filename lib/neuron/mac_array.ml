open Hnlpu_gates

let tech = Tech.n5

type t = { gemv : Gemv.t; n_macs : int; sram : Sram.t }

let make ?(n_macs = 1024) gemv =
  if n_macs <= 0 then invalid_arg "Mac_array.make: n_macs must be positive";
  let bytes = (Gemv.weight_bits gemv + 7) / 8 in
  (* One tile of weights per access: n_macs 4-bit weights. *)
  let sram = Sram.make ~capacity_bytes:bytes ~word_bits:(n_macs * 4) () in
  { gemv; n_macs; sram }

let tiles t = (Gemv.total_macs t.gemv + t.n_macs - 1) / t.n_macs

let mac_fa_equiv = Census.fp4_full_mac ~input_bits:8 / Census.full_adder

let pipeline_fill t =
  (* Read issue + MAC + per-lane accumulation chain across a tile row. *)
  let accum_levels =
    Timing.cpa_levels (t.gemv.Gemv.act_bits + 8) * (t.gemv.Gemv.in_features / t.n_macs |> max 1)
  in
  2 + Timing.cycles_of_levels (Timing.fa_levels * 4) + Timing.cycles_of_levels accum_levels

let cycles t = tiles t + pipeline_fill t

let report t =
  let macs = float_of_int t.n_macs in
  let mac_tr = float_of_int (Census.fp4_full_mac ~input_bits:t.gemv.Gemv.act_bits) in
  let logic_tr = (macs *. mac_tr) +. float_of_int (Census.register (t.n_macs * 4)) in
  let total_bits = Gemv.weight_bits t.gemv in
  let reads = Sram.reads_to_stream t.sram ~total_bits in
  let read_energy = float_of_int reads *. Sram.read_energy_j tech t.sram in
  let mac_energy =
    float_of_int (Gemv.total_macs t.gemv)
    *. float_of_int mac_fa_equiv *. tech.Tech.gate_energy_fj *. 1e-15
  in
  let reg_energy =
    float_of_int reads *. float_of_int (t.n_macs * 4)
    *. tech.Tech.flop_energy_fj *. 1e-15
  in
  {
    Report.design = "MAC array (MA)";
    transistors = logic_tr;
    sram_bytes = Sram.capacity_bytes t.sram;
    (* Figure 12 convention: SRAM macro only. *)
    area_mm2 = Sram.area_mm2 tech t.sram;
    cycles = cycles t;
    dynamic_energy_j = read_energy +. mac_energy +. reg_energy;
    leakage_power_w =
      Sram.leakage_w tech t.sram +. (logic_tr *. tech.Tech.leakage_w_per_transistor);
  }

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
  (out, report t)
