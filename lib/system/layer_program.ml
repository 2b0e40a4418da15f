open Hnlpu_model
open Hnlpu_noc

type op = Q | K | V | Stats | Partial_o | Xo_row | Xo_gather | Moe

type kind = All_reduce | Reduce | All_gather | All_chip_all_reduce

type group = Each_column | Each_row | All_chips

type entry = {
  op : op;
  label : string;
  stage : int;
  kind : kind;
  group : group;
  payload_bytes : Config.t -> int;
  steps : int;
}

let fp16 = Link.bytes_per_value
let q_bytes c = Config.q_dim c / 4 * fp16
let kv_bytes c = Config.kv_dim c / 4 * fp16
let h4_bytes (c : Config.t) = c.Config.hidden / 4 * fp16

let program =
  let e op label stage kind group payload_bytes steps =
    { op; label; stage; kind; group; payload_bytes; steps }
  in
  [
    e Q "Q all-reduce (col)" 1 All_reduce Each_column q_bytes 2;
    e K "K reduce (col)" 1 Reduce Each_column kv_bytes 1;
    e V "V reduce (col)" 1 Reduce Each_column kv_bytes 1;
    e Stats "softmax stats (col)" 2 All_reduce Each_column (fun _ -> 64) 2;
    e Partial_o "partial-O all-reduce (col)" 3 All_reduce Each_column q_bytes 2;
    e Xo_row "Xo all-reduce (row)" 4 All_reduce Each_row h4_bytes 2;
    e Xo_gather "Xo all-gather (col)" 4 All_gather Each_column h4_bytes 1;
    e Moe "MoE all-chip all-reduce" 6 All_chip_all_reduce All_chips
      (fun c -> c.Config.hidden * fp16) 4;
  ]

(* No closure: Dataflow looks an entry up on every collective it runs. *)
let rec find op i = function
  | [] -> invalid_arg "Layer_program.index"
  | e :: rest -> if e.op = op then i else find op (i + 1) rest

let index op = find op 0 program

let instances = function
  | Each_column -> Topology.cols
  | Each_row -> Topology.rows
  | All_chips -> 1

let collective c e ~instance =
  let bytes = e.payload_bytes c in
  let group =
    match e.group with
    | Each_column -> Topology.col_group instance
    | Each_row -> Topology.row_group instance
    | All_chips -> Topology.all_chips
  in
  match e.kind with
  | All_reduce -> Schedule.All_reduce { group; bytes }
  | Reduce -> Schedule.Reduce { root = List.hd group; group; bytes }
  | All_gather -> Schedule.All_gather { group; shard_bytes = bytes }
  | All_chip_all_reduce -> Schedule.All_chip_all_reduce { bytes }

let plan c e = Schedule.canonical (collective c e ~instance:0)
