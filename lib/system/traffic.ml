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
  consistent_with_calibration : bool;
}

let ledger (c : Config.t) =
  List.map
    (fun (e : Layer_program.entry) ->
      {
        collective = e.Layer_program.label;
        payload_bytes = e.Layer_program.payload_bytes c;
        link_bytes = Schedule.total_bytes (Layer_program.plan c e);
        per_layer = 1;
      })
    Layer_program.program

let analyze (c : Config.t) =
  let entries = ledger c in
  (* Column collectives run on all four columns, row collectives on all
     four rows; the all-chip plan already spans the machine. *)
  let bytes_per_token =
    float_of_int c.Config.num_layers
    *. List.fold_left2
         (fun acc (p : Layer_program.entry) e ->
           acc
           +. float_of_int
                (e.link_bytes * e.per_layer
                * Layer_program.instances p.Layer_program.group))
         0.0 Layer_program.program entries
  in
  let throughput = Perf.throughput_tokens_per_s c ~context:2048 in
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
    consistent_with_calibration =
      Float.abs (qf -. Perf.link_contention_factor) /. Perf.link_contention_factor
      < 0.4;
  }
