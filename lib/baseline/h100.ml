open Hnlpu_model

type t = {
  hbm_bytes : float;
  hbm_bandwidth_bytes_per_s : float;
  die_mm2 : float;
  system_power_w : float;
  rack_units : int;
  node_price_usd : float;
  gpus_per_node : int;
}

let spec =
  {
    hbm_bytes = 80.0e9;
    hbm_bandwidth_bytes_per_s = 3.35e12;
    die_mm2 = 814.0;
    system_power_w = 1300.0;
    rack_units = 1;
    node_price_usd = 320_000.0;
    gpus_per_node = 8;
  }

let measured_decode_tokens_per_s = 45.0

let concurrent_tokens_per_s = 1080.0

let active_weight_bytes_per_token (c : Config.t) =
  let per_layer =
    float_of_int (Params.attention_per_layer c + Params.router_per_layer c)
    +. float_of_int
         (max 1 c.Config.experts_per_token * 3 * c.Config.hidden * c.Config.expert_hidden)
  in
  float_of_int c.Config.num_layers *. per_layer *. c.Config.bits_per_param /. 8.0

let roofline_tokens_per_s (c : Config.t) ~batch =
  if batch < 1 then invalid_arg "H100.roofline_tokens_per_s: batch must be >= 1";
  (* A batch of B tokens activates B top-k draws; the union of experts it
     touches saturates toward the whole set (coupon-collector style). *)
  let experts = float_of_int (max 1 c.Config.experts) in
  let k = float_of_int (max 1 c.Config.experts_per_token) in
  let b = float_of_int batch in
  let covered = experts *. (1.0 -. ((1.0 -. (k /. experts)) ** b)) in
  let expert_bytes =
    float_of_int (3 * c.Config.hidden * c.Config.expert_hidden)
    *. c.Config.bits_per_param /. 8.0
  in
  let dense_bytes =
    float_of_int (Params.attention_per_layer c + Params.router_per_layer c)
    *. c.Config.bits_per_param /. 8.0
  in
  let bytes_per_step =
    float_of_int c.Config.num_layers *. (dense_bytes +. (covered *. expert_bytes))
  in
  b *. spec.hbm_bandwidth_bytes_per_s *. 0.3 /. bytes_per_step

let price_per_gpu_usd = spec.node_price_usd /. float_of_int spec.gpus_per_node

let tokens_per_kj = measured_decode_tokens_per_s /. spec.system_power_w *. 1000.0

type next_gen = {
  ng_name : string;
  ng_bandwidth_bytes_per_s : float;
  ng_power_w : float;
}

let b200_class =
  { ng_name = "B200-class"; ng_bandwidth_bytes_per_s = 8.0e12; ng_power_w = 1200.0 }

let next_gen_decode_tokens_per_s ng =
  measured_decode_tokens_per_s
  *. (ng.ng_bandwidth_bytes_per_s /. spec.hbm_bandwidth_bytes_per_s)

let next_gen_tokens_per_kj ng =
  next_gen_decode_tokens_per_s ng /. ng.ng_power_w *. 1000.0
