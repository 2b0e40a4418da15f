open Hnlpu_gates
open Hnlpu_model

let tech = Tech.n5

type t = { banks : int; bank_bytes : int; port_bits : int }

let hnlpu = { banks = 20_000; bank_bytes = 16 * 1024; port_bits = 32 }

let capacity_bytes t = t.banks * t.bank_bytes

(* Dense 16 KB single-port banks reach better array efficiency than the
   generic small-macro figure in Tech; 0.41 reproduces Table 1's 136 mm². *)
let bank_efficiency = 0.41

let bandwidth_bytes_per_s t =
  float_of_int (t.banks * (t.port_bits / 8)) *. tech.Tech.clock_ghz *. 1e9

let area_mm2 t =
  let bits = float_of_int (capacity_bytes t * 8) in
  bits *. tech.Tech.sram_bitcell_um2 *. 1e-6 /. bank_efficiency

let leakage_w t =
  float_of_int (capacity_bytes t) /. 1e6 *. tech.Tech.sram_leak_w_per_mb

let kv_elem_bytes = 2 (* FP16 cache entries *)

let kv_bytes_per_position_per_chip (c : Config.t) =
  (* Each column group holds 2 of the 8 KV heads ... more precisely, a chip
     holds its column's KV heads for the positions striped to it; averaged
     per position the chip pays (kv_dim / cols) K entries plus as many V. *)
  let heads_per_col = c.Config.kv_heads / Hnlpu_noc.Topology.cols in
  2 * c.Config.num_layers * heads_per_col * c.Config.head_dim * kv_elem_bytes

let onchip_positions t (c : Config.t) =
  let per_pos = kv_bytes_per_position_per_chip c in
  (* A chip stores 1/4 of the column's positions (l mod 4 striping): the
     per-chip floor must be taken before scaling by the stripe width, or
     the capacity claims positions no single chip can hold. *)
  capacity_bytes t / per_pos * Hnlpu_noc.Topology.rows

let spilled_bytes_per_token t c ~context =
  if context < 0 then invalid_arg "Attention_buffer: negative context";
  let cap = onchip_positions t c in
  if context <= cap then 0.0
  else
    float_of_int (context - cap)
    /. float_of_int Hnlpu_noc.Topology.rows
    *. float_of_int (kv_bytes_per_position_per_chip c)
