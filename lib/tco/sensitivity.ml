type params = {
  mask_scale : float;
  design_scale : float;
  recurring_scale : float;
  electricity_scale : float;
  gpu_price_scale : float;
  license_scale : float;
  hnlpu_power_scale : float;
}

let baseline =
  {
    mask_scale = 1.0;
    design_scale = 1.0;
    recurring_scale = 1.0;
    electricity_scale = 1.0;
    gpu_price_scale = 1.0;
    license_scale = 1.0;
    hnlpu_power_scale = 1.0;
  }

let mid (a, b) = (a +. b) /. 2.0

let advantage p =
  let systems = Tco.hnlpu_systems Tco.High in
  let chips = systems * Cost_breakdown.chips_per_system in
  let gpus = float_of_int (Tco.h100_gpus Tco.High) in
  let nodes = gpus /. 8.0 in
  (* HNLPU side. *)
  let masks b =
    p.mask_scale
    *. (Hnlpu_litho.Mask_cost.homogeneous_cost (Pricing.anchor b)
       +. Hnlpu_litho.Mask_cost.sea_of_neurons_respin (Pricing.anchor b)
            ~chips:Cost_breakdown.chips_per_system)
  in
  let respin b =
    p.mask_scale
    *. Hnlpu_litho.Mask_cost.sea_of_neurons_respin (Pricing.anchor b)
         ~chips:Cost_breakdown.chips_per_system
    +. (p.recurring_scale *. float_of_int chips *. Pricing.recurring_per_chip_usd b)
  in
  let fp = Hnlpu_chip.Floorplan.table1 () in
  let hn_power_mw =
    p.hnlpu_power_scale
    *. Hnlpu_chip.Floorplan.system_power_w fp
    *. float_of_int systems *. Pricing.pue /. 1e6
  in
  let electricity mw =
    p.electricity_scale *. mw *. 1000.0 *. Pricing.lifetime_hours
    *. Pricing.electricity_usd_per_kwh
  in
  let hnlpu b =
    masks b
    +. (p.design_scale *. Pricing.design_total_usd b)
    +. (p.recurring_scale *. float_of_int chips *. Pricing.recurring_per_chip_usd b)
    +. (float_of_int chips *. Pricing.hnlpu_network_usd_per_chip)
    +. (hn_power_mw *. Pricing.facility_usd_per_mw)
    +. electricity hn_power_mw
    +. (p.recurring_scale
       *. float_of_int (max 1 (systems / 10) * Cost_breakdown.chips_per_system)
       *. Pricing.recurring_per_chip_usd b)
    +. (2.0 *. respin b)
  in
  (* H100 side. *)
  let node_price = p.gpu_price_scale *. 320_000.0 in
  let gpu_power_mw = gpus *. 1300.0 *. Pricing.pue /. 1e6 in
  let h100 =
    (nodes *. node_price)
    +. (nodes *. Pricing.h100_network_usd_per_node)
    +. (gpu_power_mw *. Pricing.facility_usd_per_mw)
    +. electricity gpu_power_mw
    +. (3.0 *. Pricing.h100_maintenance_rate_per_year *. nodes *. node_price)
    +. (p.license_scale *. 3.0 *. gpus *. Pricing.h100_license_usd_per_gpu_per_year)
  in
  h100 /. mid (hnlpu Pricing.Optimistic, hnlpu Pricing.Pessimistic)

type tornado_bar = {
  factor : string;
  low_advantage : float;
  high_advantage : float;
  swing : float;
}

let tornado () =
  let sweep (name, set) =
    let low_advantage = advantage (set baseline 0.5) in
    let high_advantage = advantage (set baseline 2.0) in
    {
      factor = name;
      low_advantage;
      high_advantage;
      swing = Float.abs (high_advantage -. low_advantage);
    }
  in
  let bars =
    List.map sweep
      [
        ("mask-set price", fun p s -> { p with mask_scale = s });
        ("design & development", fun p s -> { p with design_scale = s });
        ("chip recurring cost", fun p s -> { p with recurring_scale = s });
        ("electricity price", fun p s -> { p with electricity_scale = s });
        ("GPU node price", fun p s -> { p with gpu_price_scale = s });
        ("GPU software license", fun p s -> { p with license_scale = s });
        ("HNLPU power", fun p s -> { p with hnlpu_power_scale = s });
      ]
  in
  List.sort (fun a b -> compare b.swing a.swing) bars

let to_table bars =
  let t =
    Hnlpu_util.Table.create
      ~headers:[ "Assumption (0.5x .. 2x)"; "Advantage @0.5x"; "@2x"; "Swing" ]
  in
  List.iter
    (fun b ->
      Hnlpu_util.Table.add_row t
        [
          b.factor;
          Printf.sprintf "%.1fx" b.low_advantage;
          Printf.sprintf "%.1fx" b.high_advantage;
          Printf.sprintf "%.1f" b.swing;
        ])
    bars;
  t
