open Hnlpu_util
open Hnlpu_gates

type t = {
  design : string;
  transistors : float;
  sram_bytes : int;
  area_mm2 : float;
  cycles : int;
  dynamic_energy_j : float;
  leakage_power_w : float;
}

let latency_s tech t = float_of_int t.cycles *. Tech.cycle_time_s tech

let energy_j tech t =
  t.dynamic_energy_j +. (t.leakage_power_w *. latency_s tech t)

let area_ratio t ~baseline = t.area_mm2 /. baseline.area_mm2

let to_table tech reports =
  let table =
    Table.create
      ~headers:
        [ "Design"; "Area (mm2)"; "Transistors"; "SRAM"; "Cycles"; "Energy (nJ)" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.design;
          Printf.sprintf "%.4f" r.area_mm2;
          Units.si r.transistors;
          Units.bytes (float_of_int r.sram_bytes);
          string_of_int r.cycles;
          Printf.sprintf "%.2f" (energy_j tech r *. 1e9);
        ])
    reports;
  table
