open Hnlpu_model
open Hnlpu_noc

type ledger_entry = {
  collective : string;
  payload_bytes : int;
  link_bytes : int;
  per_layer : int;
}

type t = {
  entries : ledger_entry list;
  bytes_per_token : float;
  demand_bytes_per_s : float;
  fabric_capacity_bytes_per_s : float;
  mean_link_utilization : float;
  queueing_factor_mm1 : float;
  corroborates_calibration : bool;
}

let ledger (c : Config.t) =
  let fp16 = Link.bytes_per_value in
  let q = Config.q_dim c / 4 * fp16 in
  let kv = Config.kv_dim c / 4 * fp16 in
  let h4 = c.Config.hidden / 4 * fp16 in
  let h = c.Config.hidden * fp16 in
  let entry collective payload plan per_layer =
    let link_bytes =
      List.fold_left
        (fun acc step ->
          List.fold_left (fun a (tr : Schedule.transfer) -> a + tr.Schedule.bytes) acc step)
        0 plan
    in
    ignore payload;
    { collective; payload_bytes = payload; link_bytes; per_layer }
  in
  let col = Topology.col_group 0 and row = Topology.row_group 0 in
  [
    entry "Q all-reduce (col)" q (Schedule.all_reduce ~group:col ~bytes:q) 1;
    entry "K reduce (col)" kv (Schedule.reduce ~root:0 ~group:col ~bytes:kv) 1;
    entry "V reduce (col)" kv (Schedule.reduce ~root:0 ~group:col ~bytes:kv) 1;
    entry "softmax stats (col)" 64 (Schedule.all_reduce ~group:col ~bytes:64) 1;
    entry "partial-O all-reduce (col)" q (Schedule.all_reduce ~group:col ~bytes:q) 1;
    entry "Xo all-reduce (row)" h4 (Schedule.all_reduce ~group:row ~bytes:h4) 1;
    entry "Xo all-gather (col)" h4 (Schedule.all_gather ~group:col ~shard_bytes:h4) 1;
    entry "MoE all-chip all-reduce" h (Schedule.all_chip_all_reduce ~bytes:h) 1;
  ]

let analyze ?(context = 2048) (c : Config.t) =
  let entries = ledger c in
  (* Column collectives run on all four columns, row collectives on all
     four rows; the all-chip plan already spans the machine. *)
  let machine_factor e =
    if e.collective = "MoE all-chip all-reduce" then 1 else 4
  in
  let bytes_per_token =
    float_of_int c.Config.num_layers
    *. List.fold_left
         (fun acc e ->
           acc +. float_of_int (e.link_bytes * e.per_layer * machine_factor e))
         0.0 entries
  in
  let throughput = Perf.throughput_tokens_per_s c ~context in
  let demand = bytes_per_token *. throughput in
  let capacity =
    float_of_int (List.length (Topology.links ()))
    *. Link.cxl3.Link.bandwidth_bytes_per_s
  in
  let util = demand /. capacity in
  let qf = if util < 1.0 then 1.0 /. (1.0 -. util) else infinity in
  {
    entries;
    bytes_per_token;
    demand_bytes_per_s = demand;
    fabric_capacity_bytes_per_s = capacity;
    mean_link_utilization = util;
    queueing_factor_mm1 = qf;
    corroborates_calibration =
      Float.abs (qf -. Perf.link_contention_factor) /. Perf.link_contention_factor
      < 0.4;
  }

let to_table t =
  let tbl =
    Hnlpu_util.Table.create
      ~headers:[ "Collective"; "Payload (B)"; "Link bytes"; "Per layer" ]
  in
  List.iter
    (fun e ->
      Hnlpu_util.Table.add_row tbl
        [
          e.collective;
          string_of_int e.payload_bytes;
          string_of_int e.link_bytes;
          string_of_int e.per_layer;
        ])
    t.entries;
  Hnlpu_util.Table.add_sep tbl;
  Hnlpu_util.Table.add_row tbl
    [
      "Total per token (all layers/columns)";
      "";
      Printf.sprintf "%.0f" t.bytes_per_token;
      "";
    ];
  Hnlpu_util.Table.add_row tbl
    [
      "Fabric utilization at full rate";
      "";
      Hnlpu_util.Units.percent t.mean_link_utilization;
      "";
    ];
  tbl
