open Hnlpu_util

type block = { block_name : string; area_mm2 : float; power_w : float }

type t = {
  blocks : block list;
  total_area_mm2 : float;
  total_power_w : float;
}

(* The attention buffer's switching power at its service bandwidth; Table 1
   anchors the total at 85.73 W, of which ~3.8 W is SRAM leakage (0.012 W/MB
   x 320 MB) — the rest is bank access plus the 20,000-bank distribution
   fabric. *)
let buffer_dynamic_w = 81.89

(* HBM PHY + DRAM I/O streaming power at the effective bandwidth
   (~5.5 pJ/bit at 1.42 TB/s); Table 1 row: 63 W. *)
let hbm_phy_power_w = 63.0

let table1 ?(config = Hnlpu_model.Config.gpt_oss_120b) () =
  let buffer = Attention_buffer.hnlpu in
  let blocks =
    [
      {
        block_name = "HN Array";
        area_mm2 = Hn_array.area_mm2 config;
        power_w = Hn_array.power_w config;
      };
      { block_name = "VEX"; area_mm2 = Vex.area_mm2; power_w = Vex.power_w };
      {
        block_name = "Control Unit";
        area_mm2 = Control_unit.area_mm2;
        power_w = Control_unit.power_w;
      };
      {
        block_name = "Attention Buffer";
        area_mm2 = Attention_buffer.area_mm2 buffer;
        power_w = buffer_dynamic_w +. Attention_buffer.leakage_w buffer;
      };
      {
        block_name = "Interconnect Engine";
        area_mm2 = Interconnect_engine.area_mm2;
        power_w = Interconnect_engine.power_w;
      };
      { block_name = "HBM PHY"; area_mm2 = Hbm.phy_area_mm2; power_w = hbm_phy_power_w };
    ]
  in
  {
    blocks;
    total_area_mm2 = List.fold_left (fun a b -> a +. b.area_mm2) 0.0 blocks;
    total_power_w = List.fold_left (fun a b -> a +. b.power_w) 0.0 blocks;
  }

let chips = float_of_int Hnlpu_noc.Topology.chips

let system_silicon_mm2 t = t.total_area_mm2 *. chips

let system_power_w t = t.total_power_w *. chips *. 1.4

let area_share t name =
  match List.find_opt (fun b -> b.block_name = name) t.blocks with
  | None -> invalid_arg ("Floorplan.area_share: unknown block " ^ name)
  | Some b -> b.area_mm2 /. t.total_area_mm2

let power_density_w_per_mm2 t = t.total_power_w /. t.total_area_mm2

let to_table t =
  let tbl = Table.create ~headers:[ "Block"; "Area (mm2)"; "%"; "Power (W)"; "%" ] in
  List.iter
    (fun b ->
      Table.add_row tbl
        [
          b.block_name;
          Printf.sprintf "%.2f" b.area_mm2;
          Printf.sprintf "%.1f" (100.0 *. b.area_mm2 /. t.total_area_mm2);
          Printf.sprintf "%.2f" b.power_w;
          Printf.sprintf "%.2f" (100.0 *. b.power_w /. t.total_power_w);
        ])
    t.blocks;
  Table.add_sep tbl;
  Table.add_row tbl
    [
      "Total";
      Printf.sprintf "%.2f" t.total_area_mm2;
      "100.0";
      Printf.sprintf "%.2f" t.total_power_w;
      "100.00";
    ];
  tbl
