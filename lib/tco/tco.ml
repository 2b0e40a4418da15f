type volume = Low | High

let hnlpu_systems = function Low -> 1 | High -> 50

let h100_gpus = function Low -> 2_000 | High -> 100_000

let equivalence_gpus_per_hnlpu =
  Float.round Hnlpu_baseline.Scaling.paper_equivalence.Hnlpu_baseline.Scaling.gpus_needed

type money = { lo : float; hi : float }

type column = {
  units : int;
  datacenter_power_mw : float;
  node_price : money;
  infrastructure : money;
  total_capex : money;
  respin : money;
  electricity : money;
  maintenance : money;
  opex : money;
  tco_static : money;
  tco_dynamic : money;
  emissions_static_t : float;
  emissions_dynamic_t : float;
}

let constant x = { lo = x; hi = x }

let of_bounds f = { lo = f Pricing.Optimistic; hi = f Pricing.Pessimistic }

let plus a b = { lo = a.lo +. b.lo; hi = a.hi +. b.hi }

let times k a = { lo = k *. a.lo; hi = k *. a.hi }

let electricity_usd ~power_mw =
  power_mw *. 1000.0 *. Pricing.lifetime_hours *. Pricing.electricity_usd_per_kwh

let operational_tco2e ~power_mw =
  power_mw *. 1000.0 *. Pricing.lifetime_hours *. Pricing.grid_kgco2e_per_kwh /. 1000.0

let spare_nodes = function Low -> 1 | High -> 5

let hnlpu_column volume =
  let systems = hnlpu_systems volume in
  let chips = systems * Cost_breakdown.chips_per_system in
  let fp = Hnlpu_chip.Floorplan.table1 () in
  let wall_w = Hnlpu_chip.Floorplan.system_power_w fp *. float_of_int systems in
  let power_mw = wall_w *. Pricing.pue /. 1e6 in
  let node_price = of_bounds (fun b -> Cost_breakdown.initial_build_usd b ~systems) in
  let infrastructure =
    constant
      ((float_of_int chips *. Pricing.hnlpu_network_usd_per_chip)
      +. (power_mw *. Pricing.facility_usd_per_mw))
  in
  let total_capex = plus node_price infrastructure in
  let respin = of_bounds (fun b -> Cost_breakdown.respin_usd b ~systems) in
  let electricity = constant (electricity_usd ~power_mw) in
  let maintenance =
    of_bounds (fun b ->
        float_of_int (spare_nodes volume * Cost_breakdown.chips_per_system)
        *. Pricing.recurring_per_chip_usd b)
  in
  let opex = plus electricity maintenance in
  let tco_static = plus total_capex opex in
  let tco_dynamic = plus tco_static (times 2.0 respin) in
  (* Emissions: the paper's footprint counts the deployed modules plus one
     module per spare node (Appendix B note 8). *)
  let modules = chips + spare_nodes volume in
  let embodied = float_of_int modules *. Pricing.embodied_kgco2e_per_module /. 1000.0 in
  let respin_embodied =
    2.0 *. float_of_int chips *. Pricing.embodied_kgco2e_per_module /. 1000.0
  in
  let op_t = operational_tco2e ~power_mw in
  {
    units = systems;
    datacenter_power_mw = power_mw;
    node_price;
    infrastructure;
    total_capex;
    respin;
    electricity;
    maintenance;
    opex;
    tco_static;
    tco_dynamic;
    emissions_static_t = embodied +. op_t;
    emissions_dynamic_t = embodied +. respin_embodied +. op_t;
  }

let h100_column volume =
  let gpus = h100_gpus volume in
  let nodes = gpus / Hnlpu_baseline.H100.spec.Hnlpu_baseline.H100.gpus_per_node in
  let wall_w =
    float_of_int gpus *. Hnlpu_baseline.H100.spec.Hnlpu_baseline.H100.system_power_w
  in
  let power_mw = wall_w *. Pricing.pue /. 1e6 in
  let node_price =
    constant
      (float_of_int nodes *. Hnlpu_baseline.H100.spec.Hnlpu_baseline.H100.node_price_usd)
  in
  let infrastructure =
    constant
      ((float_of_int nodes *. Pricing.h100_network_usd_per_node)
      +. (power_mw *. Pricing.facility_usd_per_mw))
  in
  let total_capex = plus node_price infrastructure in
  let electricity = constant (electricity_usd ~power_mw) in
  let maintenance =
    constant
      ((3.0 *. Pricing.h100_maintenance_rate_per_year *. node_price.lo)
      +. (3.0 *. float_of_int gpus *. Pricing.h100_license_usd_per_gpu_per_year))
  in
  let opex = plus electricity maintenance in
  let tco = plus total_capex opex in
  let embodied = float_of_int gpus *. Pricing.embodied_kgco2e_per_module /. 1000.0 in
  let emissions = embodied +. operational_tco2e ~power_mw in
  {
    units = gpus;
    datacenter_power_mw = power_mw;
    node_price;
    infrastructure;
    total_capex;
    respin = constant 0.0;
    electricity;
    maintenance;
    opex;
    tco_static = tco;
    tco_dynamic = tco;
    emissions_static_t = emissions;
    emissions_dynamic_t = emissions;
  }

let ratio_pair get volume =
  let h = hnlpu_column volume and g = h100_column volume in
  ((get g).lo /. (get h).hi, (get g).lo /. (get h).lo)

let capex_ratio = ratio_pair (fun c -> c.total_capex)

let opex_ratio = ratio_pair (fun c -> c.opex)

let tco_dynamic_ratio = ratio_pair (fun c -> c.tco_dynamic)

let carbon_ratio volume =
  let h = hnlpu_column volume and g = h100_column volume in
  ( g.emissions_dynamic_t /. h.emissions_dynamic_t,
    g.emissions_static_t /. h.emissions_static_t )

