open Hnlpu_model

type t = {
  wires : float;
  supply_m : float;
  demand_m : float;
  utilization : float;
  avg_resistance_ohm : float;
  avg_capacitance_ff : float;
  wire_delay_ps : float;
  congestion_free : bool;
}

let mean_wire_length_um = 2.0

(* Half-pitches from the paper's §3.2 litho ladder: M8/M9 are SADP at
   ~40 nm half-pitch, M10/M11 single-exposure at ~60 nm. *)
let pitches_nm = [ 80.0; 80.0; 120.0; 120.0 ]

(* Minimum-width upper-metal copper plus the V7..V10 via stack and the
   POPCNT port load. *)
let r_per_um_ohm = 37.0
let r_via_stack_ohm = 90.0
let c_per_um_ff = 0.22
let c_fixed_ff = 7.36

let supply_m c =
  let area_m2 = Hnlpu_chip.Hn_array.area_mm2 c *. 1e-6 in
  List.fold_left (fun acc pitch -> acc +. (area_m2 /. (pitch *. 1e-9))) 0.0 pitches_nm

let analyze (c : Config.t) =
  let wires = Hnlpu_chip.Hn_array.weights_per_chip c in
  let supply = supply_m c in
  let demand = wires *. mean_wire_length_um *. 1e-6 in
  let utilization = demand /. supply in
  let r = (r_per_um_ohm *. mean_wire_length_um) +. r_via_stack_ohm in
  let cap = (c_per_um_ff *. mean_wire_length_um) +. c_fixed_ff in
  {
    wires;
    supply_m = supply;
    demand_m = demand;
    utilization;
    avg_resistance_ohm = r;
    avg_capacitance_ff = cap;
    wire_delay_ps = 0.69 *. r *. cap *. 1e-3;
    congestion_free = utilization < 0.70;
  }

let max_embeddable_weights c =
  0.70 *. supply_m c /. (mean_wire_length_um *. 1e-6)
