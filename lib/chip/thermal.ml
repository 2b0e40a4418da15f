type block_density = { thermal_block : string; density_w_per_mm2 : float }

type t = {
  densities : block_density list;
  average_w_per_mm2 : float;
  peak_w_per_mm2 : float;
  junction_rise_k : float;
  junction_temp_c : float;
  within_limits : bool;
}

let dlc_limit_w_per_mm2 = 2.0

let max_junction_c = 105.0

let coolant_c = 35.0

let thermal_resistance_k_per_w = 0.08

let analyze ?config ?(power_scale = 1.0) ?(coolant_c = coolant_c) ?obs () =
  if power_scale <= 0.0 then invalid_arg "Thermal.analyze: non-positive power scale";
  let fp = Floorplan.table1 ?config () in
  let densities =
    List.filter_map
      (fun (b : Floorplan.block) ->
        if b.Floorplan.area_mm2 < 0.1 then None (* control unit: too small to matter *)
        else
          Some
            {
              thermal_block = b.Floorplan.block_name;
              density_w_per_mm2 = power_scale *. b.Floorplan.power_w /. b.Floorplan.area_mm2;
            })
      fp.Floorplan.blocks
  in
  let average = power_scale *. fp.Floorplan.total_power_w /. fp.Floorplan.total_area_mm2 in
  let peak =
    List.fold_left (fun acc d -> Float.max acc d.density_w_per_mm2) 0.0 densities
  in
  let rise = power_scale *. fp.Floorplan.total_power_w *. thermal_resistance_k_per_w in
  let junction = coolant_c +. rise in
  let result =
    {
      densities;
      average_w_per_mm2 = average;
      peak_w_per_mm2 = peak;
      junction_rise_k = rise;
      junction_temp_c = junction;
      within_limits = peak < dlc_limit_w_per_mm2 && junction < max_junction_c;
    }
  in
  (match obs with
  | None -> ()
  | Some o ->
    let module Event = Hnlpu_obs.Event in
    let m = Hnlpu_obs.Sink.metrics o in
    let track = Event.track ~process:"thermal" ~thread:"operating-point" in
    List.iter
      (fun d ->
        Hnlpu_obs.Sink.sample o ~track
          ~name:(Printf.sprintf "thermal/density_w_per_mm2/%s" d.thermal_block)
          ~ts_s:0.0 d.density_w_per_mm2)
      result.densities;
    Hnlpu_obs.Sink.sample o ~track ~name:"thermal/junction_c" ~ts_s:0.0
      junction;
    Hnlpu_obs.Sink.instant o ~cat:"thermal" ~track ~name:"operating_point"
      ~ts_s:0.0
      ~args:
        [
          ("power_scale", Event.F power_scale);
          ("coolant_c", Event.F coolant_c);
          ("within_limits", Event.S (if result.within_limits then "yes" else "no"));
        ];
    Hnlpu_obs.Metrics.set m "thermal/average_w_per_mm2" average;
    Hnlpu_obs.Metrics.set m "thermal/peak_w_per_mm2" peak;
    Hnlpu_obs.Metrics.set m "thermal/junction_rise_k" rise);
  result

let hotspot t =
  match t.densities with
  | [] -> invalid_arg "Thermal.hotspot: empty"
  | first :: rest ->
    List.fold_left
      (fun best d ->
        if d.density_w_per_mm2 > best.density_w_per_mm2 then d else best)
      first rest
