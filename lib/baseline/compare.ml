type system = {
  sys_name : string;
  throughput_tokens_per_s : float;
  tech_node : string;
  silicon_mm2 : float;
  rack_units : int;
  system_power_w : float;
  tokens_per_kj : float;
  tokens_per_s_mm2 : float;
}

let hnlpu () =
  let config = Hnlpu_model.Config.gpt_oss_120b in
  let fp = Hnlpu_chip.Floorplan.table1 () in
  let throughput = Hnlpu_system.Perf.throughput_tokens_per_s config ~context:2048 in
  let power = Hnlpu_chip.Floorplan.system_power_w fp in
  let silicon = Hnlpu_chip.Floorplan.system_silicon_mm2 fp in
  {
    sys_name = "HNLPU";
    throughput_tokens_per_s = throughput;
    tech_node = "5 nm";
    silicon_mm2 = silicon;
    rack_units = 4;
    system_power_w = power;
    tokens_per_kj = throughput /. power *. 1000.0;
    tokens_per_s_mm2 = throughput /. silicon;
  }

let h100 () =
  let s = H100.spec in
  {
    sys_name = "H100";
    throughput_tokens_per_s = H100.measured_decode_tokens_per_s;
    tech_node = "5 nm";
    silicon_mm2 = s.H100.die_mm2;
    rack_units = s.H100.rack_units;
    system_power_w = s.H100.system_power_w;
    tokens_per_kj = H100.tokens_per_kj;
    tokens_per_s_mm2 = H100.measured_decode_tokens_per_s /. s.H100.die_mm2;
  }

let wse3 () =
  let s = Wse3.spec in
  {
    sys_name = "WSE-3";
    throughput_tokens_per_s = Wse3.measured_tokens_per_s;
    tech_node = "5 nm";
    silicon_mm2 = s.Wse3.silicon_mm2;
    rack_units = s.Wse3.rack_units;
    system_power_w = s.Wse3.system_power_w;
    tokens_per_kj = Wse3.tokens_per_kj;
    tokens_per_s_mm2 = Wse3.area_efficiency;
  }

let table2 () = [ hnlpu (); h100 (); wse3 () ]

let throughput_ratio s ~over = s.throughput_tokens_per_s /. over.throughput_tokens_per_s

let efficiency_ratio s ~over = s.tokens_per_kj /. over.tokens_per_kj

