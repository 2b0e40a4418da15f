type t = { capacity_bits : int; word_bits : int }

let make ~capacity_bytes ~word_bits () =
  if capacity_bytes <= 0 || word_bits <= 0 then
    invalid_arg "Sram.make: sizes must be positive";
  { capacity_bits = capacity_bytes * 8; word_bits }

let area_mm2 (tech : Tech.t) t =
  let cell_mm2 = tech.sram_bitcell_um2 *. 1e-6 in
  float_of_int t.capacity_bits *. cell_mm2 /. tech.sram_array_efficiency

let read_energy_j (tech : Tech.t) t =
  float_of_int t.word_bits *. tech.sram_read_fj_per_bit *. 1e-15

let leakage_w (tech : Tech.t) t =
  float_of_int t.capacity_bits /. 8.0 /. 1e6 *. tech.sram_leak_w_per_mb

let reads_to_stream t ~total_bits = (total_bits + t.word_bits - 1) / t.word_bits

let capacity_bytes t = t.capacity_bits / 8
