open Hnlpu_chip

let thermal ?config ?power_scale ?coolant_c ~subject () =
  match Thermal.analyze ?config ?power_scale ?coolant_c () with
  | exception Invalid_argument msg ->
    [
      Diagnostic.error ~rule:"THERM-DENS" ~subject
        "thermal analysis rejected the operating point: %s" msg;
    ]
  | t ->
    let density =
      if t.Thermal.peak_w_per_mm2 >= Thermal.dlc_limit_w_per_mm2 then
        let h = Thermal.hotspot t in
        [
          Diagnostic.error ~rule:"THERM-DENS" ~subject
            "%s peaks at %.2f W/mm2, beyond the %.1f W/mm2 DLC cold-plate \
             limit"
            h.Thermal.thermal_block h.Thermal.density_w_per_mm2
            Thermal.dlc_limit_w_per_mm2;
        ]
      else
        [
          Diagnostic.info ~rule:"THERM-DENS" ~subject
            "peak density %.2f W/mm2 (average %.2f) under the %.1f W/mm2 \
             DLC limit"
            t.Thermal.peak_w_per_mm2 t.Thermal.average_w_per_mm2
            Thermal.dlc_limit_w_per_mm2;
        ]
    in
    let junction =
      if t.Thermal.junction_temp_c >= Thermal.max_junction_c then
        [
          Diagnostic.error ~rule:"THERM-JCT" ~subject
            "junction %.1f C (%.1f K rise over coolant) exceeds the %.0f C \
             silicon limit"
            t.Thermal.junction_temp_c t.Thermal.junction_rise_k
            Thermal.max_junction_c;
        ]
      else
        [
          Diagnostic.info ~rule:"THERM-JCT" ~subject
            "junction %.1f C under the %.0f C limit" t.Thermal.junction_temp_c
            Thermal.max_junction_c;
        ]
    in
    density @ junction
