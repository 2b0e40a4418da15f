open Hnlpu_model

type tile_spec = { ports : int; tiles_per_chip : int }

type projection_demand = {
  proj_name : string;
  fan_in : int;
  neurons : int;
  tiles_per_neuron : int;
  port_utilization : float;
}

type plan = {
  model : string;
  demands : projection_demand list;
  tiles_needed : float;
  chips_needed : int;
  avg_port_utilization : float;
  fits_reference_16 : bool;
}

(* Uniform accounting rule: whole-matrix fan-ins for every model (the
   per-chip mapping differs per model, so the comparable quantity is the
   undivided projection shape); the prefab supply below is derived from
   gpt-oss under the same rule, so the reference model lands on 16 chips
   by construction. *)

let demand name ~fan_in ~neurons (tile : tile_spec) =
  let tiles_per_neuron = (fan_in + tile.ports - 1) / tile.ports in
  {
    proj_name = name;
    fan_in;
    neurons;
    tiles_per_neuron;
    port_utilization =
      float_of_int fan_in /. float_of_int (tiles_per_neuron * tile.ports);
  }

let layer_demands (c : Config.t) tile =
  let experts = max 1 c.Config.experts in
  [
    demand "Wq" ~fan_in:c.Config.hidden ~neurons:(Config.q_dim c) tile;
    demand "Wk" ~fan_in:c.Config.hidden ~neurons:(Config.kv_dim c) tile;
    demand "Wv" ~fan_in:c.Config.hidden ~neurons:(Config.kv_dim c) tile;
    demand "Wo" ~fan_in:(Config.q_dim c) ~neurons:c.Config.hidden tile;
  ]
  @ (if c.Config.experts = 0 then []
     else [ demand "Wrout" ~fan_in:c.Config.hidden ~neurons:c.Config.experts tile ])
  @ [
      demand "Wup"
        ~fan_in:c.Config.hidden
        ~neurons:(experts * c.Config.expert_hidden)
        tile;
      demand "Wgate"
        ~fan_in:c.Config.hidden
        ~neurons:(experts * c.Config.expert_hidden)
        tile;
      demand "Wdown"
        ~fan_in:c.Config.expert_hidden
        ~neurons:(experts * c.Config.hidden)
        tile;
    ]

let tiles_of_demands layers demands =
  float_of_int layers
  *. List.fold_left
       (fun acc d -> acc +. float_of_int (d.neurons * d.tiles_per_neuron))
       0.0 demands

let port_slack = 1.25

let reference_tiles_per_chip ports =
  let c = Config.gpt_oss_120b in
  let tile = { ports; tiles_per_chip = 0 } in
  let total = tiles_of_demands c.Config.num_layers (layer_demands c tile) in
  int_of_float (ceil (total /. 16.0))

let hnlpu_tile =
  let ports =
    int_of_float
      (float_of_int Config.gpt_oss_120b.Config.hidden *. port_slack)
  in
  { ports; tiles_per_chip = reference_tiles_per_chip ports }

let plan (c : Config.t) =
  Config.validate c;
  if c.Config.total_params_override <> None then
    invalid_arg "Sea_of_neurons.plan: footprint-only model has no shapes";
  let demands = layer_demands c hnlpu_tile in
  let tiles_needed = tiles_of_demands c.Config.num_layers demands in
  let chips_needed =
    int_of_float (ceil (tiles_needed /. float_of_int hnlpu_tile.tiles_per_chip))
  in
  let weight_total, weighted_util =
    List.fold_left
      (fun (wt, wu) d ->
        let weights = float_of_int (d.fan_in * d.neurons) in
        (wt +. weights, wu +. (weights *. d.port_utilization)))
      (0.0, 0.0) demands
  in
  {
    model = c.Config.name;
    demands;
    tiles_needed;
    chips_needed;
    avg_port_utilization = weighted_util /. weight_total;
    fits_reference_16 = chips_needed <= 16;
  }

let utilization_penalty (c : Config.t) =
  let p = plan c in
  let ideal = Model_nre.chips_fractional c in
  float_of_int p.chips_needed /. ideal
