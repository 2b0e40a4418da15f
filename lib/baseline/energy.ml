open Hnlpu_util

type row = { component : string; energy_mj : float; share : float }

type t = {
  context : int;
  throughput_tokens_per_s : float;
  rows : row list;
  total_mj_per_token : float;
  tokens_per_joule : float;
  h100_mj_per_token : float;
  advantage : float;
}

let analyze () =
  let context = 2048 in
  let config = Hnlpu_model.Config.gpt_oss_120b in
  let fp = Hnlpu_chip.Floorplan.table1 () in
  let throughput = Hnlpu_system.Perf.throughput_tokens_per_s config ~context in
  let chips = 16.0 in
  let per_token w = w *. chips /. throughput *. 1e3 in
  let block_rows =
    List.map
      (fun (b : Hnlpu_chip.Floorplan.block) ->
        (b.Hnlpu_chip.Floorplan.block_name, per_token b.Hnlpu_chip.Floorplan.power_w))
      fp.Hnlpu_chip.Floorplan.blocks
  in
  let system_w = Hnlpu_chip.Floorplan.system_power_w fp in
  let overhead_w = system_w -. (fp.Hnlpu_chip.Floorplan.total_power_w *. chips) in
  let all =
    block_rows
    @ [ ("System overhead (PSU/cooling/host)", overhead_w /. throughput *. 1e3) ]
  in
  let total = List.fold_left (fun a (_, e) -> a +. e) 0.0 all in
  let rows =
    List.map (fun (component, energy_mj) -> { component; energy_mj; share = energy_mj /. total }) all
  in
  let h100_mj =
    H100.spec.H100.system_power_w
    /. H100.measured_decode_tokens_per_s *. 1e3
  in
  {
    context;
    throughput_tokens_per_s = throughput;
    rows;
    total_mj_per_token = total;
    tokens_per_joule = 1000.0 /. total;
    h100_mj_per_token = h100_mj;
    advantage = h100_mj /. total;
  }

let to_table t =
  let tbl = Table.create ~headers:[ "Component"; "mJ/token"; "Share" ] in
  List.iter
    (fun r ->
      Table.add_row tbl
        [ r.component; Printf.sprintf "%.2f" r.energy_mj; Units.percent r.share ])
    t.rows;
  Table.add_sep tbl;
  Table.add_row tbl
    [ "Total"; Printf.sprintf "%.2f" t.total_mj_per_token; "100.0%" ];
  Table.add_row tbl
    [
      "H100 (measured)";
      Printf.sprintf "%.0f" t.h100_mj_per_token;
      Printf.sprintf "%.0fx worse" t.advantage;
    ];
  tbl
