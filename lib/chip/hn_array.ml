open Hnlpu_gates
open Hnlpu_model

let tech = Tech.n5

let chips = float_of_int Hnlpu_noc.Topology.chips

let weights_per_chip c = Params.hardwired c /. chips

let transistors_per_weight = float_of_int Census.popcount_port_transistors +. 1.3

let array_utilization = 0.85

let area_mm2 c =
  weights_per_chip c *. transistors_per_weight
  /. (tech.Tech.transistor_density_per_mm2 *. array_utilization)

let layer_active_weights_per_chip ?(experts_active = None) (c : Config.t) =
  let attn = float_of_int (Params.attention_per_layer c) /. chips in
  let router = float_of_int (Params.router_per_layer c) (* replicated *) in
  let k =
    match experts_active with
    | Some k -> k
    | None -> c.Config.experts_per_token
  in
  let expert = float_of_int (3 * c.Config.hidden * c.Config.expert_hidden) in
  let experts =
    if c.Config.experts = 0 then expert /. chips
    else float_of_int k *. expert /. chips
  in
  attn +. router +. experts

let active_weights_per_token_per_chip (c : Config.t) =
  float_of_int c.Config.num_layers *. layer_active_weights_per_chip c

let active_fraction c =
  active_weights_per_token_per_chip c /. weights_per_chip c

(* Calibrated to Table 1's post-layout 76.92 W: per active weight site,
   clock + datapath energy per cycle with the whole pipeline busy. *)
let active_site_fj_per_cycle = 0.254

let feed_bytes_per_cycle = 4

let stream_cycles ~bytes =
  if bytes <= 0 then invalid_arg "Hn_array.stream_cycles";
  let feed = bytes / feed_bytes_per_cycle in
  let drain = 8 (* bit planes *) + 8 (* popcount/multiply/tree/acc drain *) in
  feed + drain

let leakage_w c =
  weights_per_chip c *. transistors_per_weight *. tech.Tech.leakage_w_per_transistor

let power_of_active c active =
  (active *. active_site_fj_per_cycle *. 1e-15 *. tech.Tech.clock_ghz *. 1e9)
  +. leakage_w c

let power_w c = power_of_active c (active_weights_per_token_per_chip c)

let power_if_dense_w (c : Config.t) =
  let all = Some (max 1 c.Config.experts) in
  let active =
    float_of_int c.Config.num_layers
    *. layer_active_weights_per_chip ~experts_active:all c
  in
  power_of_active c active
