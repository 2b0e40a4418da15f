type entry = {
  constant : string;
  value : float;
  unit_ : string;
  anchor : string;
  derived_fraction_note : string;
}

let all () =
  [
    {
      constant = "Census.popcount_port_transistors";
      value = float_of_int Hnlpu_gates.Census.popcount_port_transistors;
      unit_ = "transistors/port";
      anchor = "Fig. 12 ME area ratio; Table 1 HN array 573 mm2";
      derived_fraction_note =
        "static-CMOS FA would be 28 T; compact counter cells + slice sharing fitted";
    };
    {
      constant = "Hn_array.transistors_per_weight";
      value = Hnlpu_chip.Hn_array.transistors_per_weight;
      unit_ = "transistors/weight";
      anchor = "Table 1 HN array area";
      derived_fraction_note = "port cost derived; +1.3 amortized neuron overhead fitted";
    };
    {
      constant = "Hn_array.active_site_fj_per_cycle";
      value = 0.254;
      unit_ = "fJ/site/cycle";
      anchor = "Table 1 HN array 76.92 W";
      derived_fraction_note = "active-site census derived; energy coefficient fitted";
    };
    {
      constant = "Perf.link_contention_factor";
      value = Hnlpu_system.Perf.link_contention_factor;
      unit_ = "x";
      anchor = "Fig. 14 comm shares; Table 2 throughput";
      derived_fraction_note =
        "consistent with Traffic's M/M/1 factor at 71% fabric load, not \
         independent of it: the load comes from Perf's throughput, which \
         already contains 4.17";
    };
    {
      constant = "Vex.attention_efficiency";
      value = Hnlpu_chip.Vex.attention_efficiency;
      unit_ = "fraction of 32 lanes";
      anchor = "Fig. 14 attention share (15.1% at 64K)";
      derived_fraction_note = "lane count from the paper; sustained efficiency fitted";
    };
    {
      constant = "Hbm.effective_bandwidth";
      value = Hnlpu_chip.Hbm.hnlpu.Hnlpu_chip.Hbm.effective_bandwidth_bytes_per_s;
      unit_ = "B/s";
      anchor = "Fig. 14 stall onset between 256K and 512K";
      derived_fraction_note = "within the physical 2..8-stack HBM3 band";
    };
    {
      constant = "Attention_buffer.bank_efficiency";
      value = 0.41;
      unit_ = "fraction";
      anchor = "Table 1 buffer 136.11 mm2";
      derived_fraction_note = "bitcell area public; macro efficiency fitted";
    };
    {
      constant = "Floorplan.buffer_dynamic_w";
      value = 81.89;
      unit_ = "W";
      anchor = "Table 1 buffer 85.73 W";
      derived_fraction_note = "leakage derived (3.8 W); bank-fabric dynamic power adopted";
    };
    {
      constant = "Pricing.h100_license_usd_per_gpu_per_year";
      value = Hnlpu_tco.Pricing.h100_license_usd_per_gpu_per_year;
      unit_ = "$/GPU/yr";
      anchor = "Table 3 maintenance rows (both volumes)";
      derived_fraction_note = "back-solved exactly; consistent with NVAIE pricing";
    };
  ]

let to_table () =
  let t =
    Hnlpu_util.Table.create ~headers:[ "Constant"; "Value"; "Unit"; "Anchor" ]
  in
  List.iter
    (fun e ->
      Hnlpu_util.Table.add_row t
        [ e.constant; Hnlpu_util.Units.si ~digits:3 e.value; e.unit_; e.anchor ])
    (all ());
  t

let count () = List.length (all ())
