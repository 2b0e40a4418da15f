type split = {
  embodied_t : float;
  respin_embodied_t : float;
  operational_t : float;
  total_t : float;
}

let spare_modules = function Tco.Low -> 1 | Tco.High -> 5

let hnlpu_power_mw volume =
  let fp = Hnlpu_chip.Floorplan.table1 () in
  Hnlpu_chip.Floorplan.system_power_w fp
  *. float_of_int (Tco.hnlpu_systems volume)
  *. Pricing.pue /. 1e6

let h100_power_mw volume =
  float_of_int (Tco.h100_gpus volume) *. 1300.0 *. Pricing.pue /. 1e6

let operational_at ~kgco2e_per_kwh ~power_mw =
  power_mw *. 1000.0 *. Pricing.lifetime_hours *. kgco2e_per_kwh /. 1000.0

let hnlpu_split ?(updates = 2) volume =
  if updates < 0 then invalid_arg "Carbon.hnlpu_split: negative updates";
  let chips = Tco.hnlpu_systems volume * Cost_breakdown.chips_per_system in
  let embodied =
    float_of_int (chips + spare_modules volume)
    *. Pricing.embodied_kgco2e_per_module /. 1000.0
  in
  let respin =
    float_of_int (updates * chips) *. Pricing.embodied_kgco2e_per_module /. 1000.0
  in
  let op =
    operational_at ~kgco2e_per_kwh:Pricing.grid_kgco2e_per_kwh
      ~power_mw:(hnlpu_power_mw volume)
  in
  {
    embodied_t = embodied;
    respin_embodied_t = respin;
    operational_t = op;
    total_t = embodied +. respin +. op;
  }

let h100_split volume =
  let embodied =
    float_of_int (Tco.h100_gpus volume) *. Pricing.embodied_kgco2e_per_module /. 1000.0
  in
  let op =
    operational_at ~kgco2e_per_kwh:Pricing.grid_kgco2e_per_kwh
      ~power_mw:(h100_power_mw volume)
  in
  { embodied_t = embodied; respin_embodied_t = 0.0; operational_t = op;
    total_t = embodied +. op }

let operational_fraction s = s.operational_t /. s.total_t

let total_at_grid ~volume ~kgco2e_per_kwh side =
  match side with
  | `Hnlpu ->
    let s = hnlpu_split volume in
    s.embodied_t +. s.respin_embodied_t
    +. operational_at ~kgco2e_per_kwh ~power_mw:(hnlpu_power_mw volume)
  | `H100 ->
    let s = h100_split volume in
    s.embodied_t +. operational_at ~kgco2e_per_kwh ~power_mw:(h100_power_mw volume)

let grid_sweep intensities =
  List.map
    (fun g ->
      if g < 0.0 then invalid_arg "Carbon.grid_sweep: negative intensity";
      ( g,
        total_at_grid ~volume:Tco.High ~kgco2e_per_kwh:g `Hnlpu,
        total_at_grid ~volume:Tco.High ~kgco2e_per_kwh:g `H100 ))
    intensities

let advantage_at_grid ~kgco2e_per_kwh () =
  total_at_grid ~volume:Tco.High ~kgco2e_per_kwh `H100
  /. total_at_grid ~volume:Tco.High ~kgco2e_per_kwh `Hnlpu

let g_per_million_tokens () =
  let s = hnlpu_split Tco.High in
  let tokens =
    Hnlpu_system.Perf.throughput_tokens_per_s Hnlpu_model.Config.gpt_oss_120b
      ~context:2048
    *. 0.6 (* utilization *) *. Pricing.lifetime_hours *. 3600.0
    *. float_of_int (Tco.hnlpu_systems Tco.High)
  in
  s.total_t *. 1e6 (* grams *) /. (tokens /. 1e6)

let update_cadence_sweep volume respins =
  List.map (fun n -> (n, (hnlpu_split ~updates:n volume).total_t)) respins
