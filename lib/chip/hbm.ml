type t = {
  stacks : int;
  stack_bytes : float;
  effective_bandwidth_bytes_per_s : float;
  pj_per_bit : float;
}

let hnlpu =
  {
    stacks = 8;
    stack_bytes = 24.0e9;
    effective_bandwidth_bytes_per_s = 1.42e12;
    pj_per_bit = 3.5;
  }

let capacity_bytes t = float_of_int t.stacks *. t.stack_bytes

let fetch_time_s t ~bytes =
  if bytes < 0.0 then invalid_arg "Hbm.fetch_time_s: negative size";
  bytes /. t.effective_bandwidth_bytes_per_s

let stall_s _t ~fetch_s ~compute_s = Float.max 0.0 (fetch_s -. compute_s)

let fits_embedding t (c : Hnlpu_model.Config.t) =
  let table_bytes =
    2.0 *. float_of_int (c.Hnlpu_model.Config.vocab * c.Hnlpu_model.Config.hidden) *. 2.0
  in
  table_bytes < capacity_bytes t /. 2.0

let phy_area_mm2 = 52.0
