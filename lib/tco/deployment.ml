type update_plan = {
  updates_per_year : float;
  turnaround_weeks : float;
  years : float;
}

let annual_plan = { updates_per_year = 1.0; turnaround_weeks = 7.0; years = 3.0 }

type blue_green = {
  total_updates : int;
  respin_bill : float * float;
  weeks_in_transition : float;
  peak_fleet_factor : float;
  downtime_weeks : float;
  serving_capacity_fraction : float;
}

let blue_green plan =
  if not (plan.updates_per_year >= 0.0 && plan.years > 0.0) then
    invalid_arg "Deployment.blue_green: bad plan";
  (* Updates during the lifetime, excluding the initial build; Table 3's
     "annual updates over 3 years" convention is two re-spins. *)
  let total_updates =
    max 0 (int_of_float (Float.round (plan.updates_per_year *. plan.years)) - 1)
  in
  let respin b = Cost_breakdown.respin_usd b ~systems:1 *. float_of_int total_updates in
  let weeks = float_of_int total_updates *. plan.turnaround_weeks in
  {
    total_updates;
    respin_bill = (respin Pricing.Optimistic, respin Pricing.Pessimistic);
    weeks_in_transition = weeks;
    peak_fleet_factor = (if total_updates > 0 then 2.0 else 1.0);
    downtime_weeks = 0.0;
    (* While the green fleet burns in, both serve: capacity briefly 2x. *)
    serving_capacity_fraction = 1.0 +. (weeks /. (plan.years *. 52.0));
  }

type volume_point = {
  systems : int;
  tco_usd : float * float;
  tokens_served : float;
  usd_per_mtoken : float * float;
  h100_usd_per_mtoken : float;
}

let decode_rate () =
  Hnlpu_system.Perf.throughput_tokens_per_s Hnlpu_model.Config.gpt_oss_120b
    ~context:2048

let hnlpu_tco_dynamic systems bound =
  (* Re-derive the Table 3 pipeline at arbitrary fleet size. *)
  let fp = Hnlpu_chip.Floorplan.table1 () in
  let wall_w = Hnlpu_chip.Floorplan.system_power_w fp *. float_of_int systems in
  let power_mw = wall_w *. Pricing.pue /. 1e6 in
  let chips = systems * Cost_breakdown.chips_per_system in
  let capex =
    Cost_breakdown.initial_build_usd bound ~systems
    +. (float_of_int chips *. Pricing.hnlpu_network_usd_per_chip)
    +. (power_mw *. Pricing.facility_usd_per_mw)
  in
  let electricity =
    power_mw *. 1000.0 *. Pricing.lifetime_hours *. Pricing.electricity_usd_per_kwh
  in
  let spares = max 1 (systems / 10) in
  let maintenance =
    float_of_int (spares * Cost_breakdown.chips_per_system)
    *. Pricing.recurring_per_chip_usd bound
  in
  capex +. electricity +. maintenance +. (2.0 *. Cost_breakdown.respin_usd bound ~systems)

(* Both fleets serve at 60% of their peak decode rate. *)
let utilization = 0.6

let h100_cost_per_mtoken () =
  (* An H100 fleet sized for one HNLPU's throughput, priced per token. *)
  let gpus = Tco.equivalence_gpus_per_hnlpu in
  let nodes = gpus /. 8.0 in
  let power_mw = gpus *. 1300.0 *. Pricing.pue /. 1e6 in
  let capex =
    (nodes *. Hnlpu_baseline.H100.spec.Hnlpu_baseline.H100.node_price_usd)
    +. (nodes *. Pricing.h100_network_usd_per_node)
    +. (power_mw *. Pricing.facility_usd_per_mw)
  in
  let electricity =
    power_mw *. 1000.0 *. Pricing.lifetime_hours *. Pricing.electricity_usd_per_kwh
  in
  let maintenance =
    (3.0 *. Pricing.h100_maintenance_rate_per_year
    *. (nodes *. Hnlpu_baseline.H100.spec.Hnlpu_baseline.H100.node_price_usd))
    +. (3.0 *. gpus *. Pricing.h100_license_usd_per_gpu_per_year)
  in
  let tokens =
    decode_rate () *. utilization *. Pricing.lifetime_hours *. 3600.0
  in
  (capex +. electricity +. maintenance) /. (tokens /. 1e6)

let volume_sweep fleet_sizes =
  let per_system_tokens =
    decode_rate () *. utilization *. Pricing.lifetime_hours *. 3600.0
  in
  let h100 = h100_cost_per_mtoken () in
  List.map
    (fun systems ->
      if systems <= 0 then invalid_arg "Deployment.volume_sweep: systems >= 1";
      let tokens = per_system_tokens *. float_of_int systems in
      let lo = hnlpu_tco_dynamic systems Pricing.Optimistic in
      let hi = hnlpu_tco_dynamic systems Pricing.Pessimistic in
      {
        systems;
        tco_usd = (lo, hi);
        tokens_served = tokens;
        usd_per_mtoken = (lo /. (tokens /. 1e6), hi /. (tokens /. 1e6));
        h100_usd_per_mtoken = h100;
      })
    fleet_sizes

let crossover_systems () =
  let rec go n =
    if n > 1000 then None
    else begin
      match volume_sweep [ n ] with
      | [ p ] ->
        let _, hi = p.usd_per_mtoken in
        if hi < p.h100_usd_per_mtoken then Some n else go (n + 1)
      | _ -> None
    end
  in
  go 1
