open Hnlpu_util
open Hnlpu_neuron
open Hnlpu_litho
open Hnlpu_noc
open Hnlpu_model
open Hnlpu_system

type chip_design = {
  chip : Topology.chip;
  netlist : Hn_compiler.netlist;
  schematic : Gemv.t;
}

type design = {
  config : Config.t;
  chips : chip_design list;
  plans : (string * Schedule.collective * Schedule.t) list;
  stage_map : System_rules.stage_slot list;
  claimed_slots : int;
  max_context : int;
  power_scale : float;
  coolant_c : float;
  execution : Execution.t;
}

(* "q.col0" ... "moe.all": the program entry, then its instance. *)
let plan_name (e : Layer_program.entry) ~instance =
  let op =
    match e.op with
    | Layer_program.Q -> "q" | K -> "k" | V -> "v" | Stats -> "stats"
    | Partial_o -> "partial-o" | Xo_row -> "xo-row" | Xo_gather -> "xo-gather"
    | Moe -> "moe"
  in
  match e.group with
  | Layer_program.Each_column -> Printf.sprintf "%s.col%d" op instance
  | Each_row -> Printf.sprintf "%s.row%d" op instance
  | All_chips -> op ^ ".all"

let reference ?(seed = 42) () =
  let config = Config.gpt_oss_120b in
  let chips =
    List.map
      (fun chip ->
        let g =
          Gemv.random (Rng.create (seed + chip)) ~in_features:48
            ~out_features:6 ~act_bits:8
        in
        (* Slack 16 admits any region skew a random FP4 row can produce. *)
        { chip; netlist = Hn_compiler.compile ~slack:16.0 g; schematic = g })
      Topology.all_chips
  in
  let plans =
    List.concat_map
      (fun (e : Layer_program.entry) ->
        List.init (Layer_program.instances e.group) (fun instance ->
            let coll = Layer_program.collective config e ~instance in
            (plan_name e ~instance, coll, Schedule.canonical coll)))
      Layer_program.program
  in
  {
    config;
    chips;
    plans;
    stage_map = System_rules.canonical_stage_map config;
    claimed_slots = Perf.pipeline_slots config;
    max_context = 65536;
    power_scale = 1.0;
    coolant_c = Hnlpu_chip.Thermal.coolant_c;
    execution = Execution.deterministic;
  }

let log_src = Logs.Src.create "hnlpu.verify" ~doc:"Static signoff progress"

module Log = (val Logs.src_log log_src : Logs.LOG)

let check ?(dynamic = true) d =
  let subject_of chip = Printf.sprintf "chip%02d" chip in
  let family name ds =
    Log.info (fun m -> m "%s: %d diagnostic(s)" name (List.length ds));
    ds
  in
  let netlist =
    family "netlist DRC/LVS"
      (List.concat_map
         (fun cd ->
           Netlist_rules.check_chip ~subject:(subject_of cd.chip) cd.netlist
             cd.schematic)
         d.chips
      @ Netlist_rules.mask_uniformity
          (List.map (fun cd -> (subject_of cd.chip, cd.netlist)) d.chips))
  in
  let noc =
    family "NoC schedules"
      (List.concat_map
         (fun (name, coll, plan) ->
           Noc_rules.check ~dynamic ~subject:name coll plan)
         d.plans)
  in
  let dataflow =
    family "static dataflow"
      (List.concat_map
         (fun (name, coll, plan) ->
           (* A malformed plan already has its NOC-BYTES errors. *)
           if Noc_rules.malformed ~subject:name coll plan <> [] then []
           else
             Static.check_plan ~subject:name ~config:d.config
               ~max_context:d.max_context coll plan)
         d.plans
      @ Static.determinism ~subject:"execution" d.execution)
  in
  let system =
    family "system budgets"
      (System_rules.pipeline_mapping ~subject:"pipeline" d.config d.stage_map
      @ System_rules.weight_partition ~subject:"mapping" d.config
      @ System_rules.buffer_budget ~subject:"attention-buffer" d.config
          ~max_context:d.max_context
      @ System_rules.scheduler_slots ~subject:"scheduler" d.config
          ~claimed_slots:d.claimed_slots)
  in
  let thermal =
    family "thermal"
      (Chip_rules.thermal ~config:d.config ~power_scale:d.power_scale
         ~coolant_c:d.coolant_c ~subject:"thermal" ())
  in
  netlist @ noc @ dataflow @ system @ thermal

let rules =
  [
    "ME-CONGEST"; "ME-TRACK"; "ME-PORT"; "ME-WINDOW"; "ME-MASK"; "ME-LVS";
    "NOC-LINK"; "NOC-PORT"; "NOC-BYTES"; "NOC-EXEC"; "NOC-MAKESPAN";
    "NOC-DEADLOCK"; "NOC-DEFUSE"; "BUF-LIVE"; "DET-LINT";
    "PIPE-MAP"; "BUF-OVFL"; "SCHED-SLOT"; "THERM-DENS"; "THERM-JCT";
  ]

let expected_severity = function
  | "NOC-MAKESPAN" -> Diagnostic.Warning
  | _ -> Diagnostic.Error

(* --- Seeded-broken fixtures: one violation per rule ------------------------ *)

let map_chip target f d =
  {
    d with
    chips =
      List.map
        (fun cd -> if cd.chip = target then { cd with netlist = f cd.netlist } else cd)
        d.chips;
  }

let map_wires f (n : Hn_compiler.netlist) =
  { n with Hn_compiler.wires = f n.Hn_compiler.wires }

let map_plan target f d =
  {
    d with
    plans =
      List.map
        (fun (name, coll, plan) ->
          if name = target then (name, coll, f plan) else (name, coll, plan))
        d.plans;
  }

(* Replace a plan's declared collective and schedule together, for
   fixtures that change what the plan declares. *)
let replace_entry target coll plan d =
  {
    d with
    plans =
      List.map
        (fun ((name, _, _) as e) -> if name = target then (name, coll, plan) else e)
        d.plans;
  }

let fixture rule =
  let d = reference () in
  match rule with
  | "ME-CONGEST" ->
    (* Pile every wire of chip 0 onto M8: distinct tracks, but four layers'
       worth of wires on one layer's window. *)
    map_chip 0
      (map_wires
         (List.mapi (fun i w -> { w with Hn_compiler.layer = "M8"; track = i })))
      d
  | "ME-TRACK" ->
    map_chip 0
      (map_wires (function
        | w1 :: w2 :: rest ->
          w1
          :: { w2 with Hn_compiler.layer = w1.Hn_compiler.layer;
                       track = w1.Hn_compiler.track }
          :: rest
        | ws -> ws))
      d
  | "ME-PORT" ->
    (* Shrink every chip's port capacity to zero: uniform across the 16
       masks, but every region port now overflows. *)
    {
      d with
      chips =
        List.map
          (fun cd ->
            { cd with netlist = { cd.netlist with Hn_compiler.region_capacity = 0 } })
          d.chips;
    }
  | "ME-WINDOW" ->
    map_chip 0
      (map_wires (function
        | w :: rest -> { w with Hn_compiler.layer = "M3" } :: rest
        | ws -> ws))
      d
  | "ME-MASK" ->
    map_chip 3
      (fun n ->
        { n with Hn_compiler.region_capacity = n.Hn_compiler.region_capacity + 1 })
      d
  | "ME-LVS" ->
    map_chip 0
      (map_wires (function
        | w :: rest ->
          { w with Hn_compiler.region = (w.Hn_compiler.region + 1) mod 16 } :: rest
        | ws -> ws))
      d
  | "NOC-LINK" ->
    (* Divert one reduce transfer to a diagonal chip: no such link. *)
    map_plan "k.col0"
      (List.map (function
        | { Schedule.src; dst = _; bytes } :: rest ->
          let diagonal =
            Topology.chip_at
              ~row:((Topology.row_of src + 1) mod Topology.rows)
              ~col:((Topology.col_of src + 1) mod Topology.cols)
          in
          { Schedule.src; dst = diagonal; bytes } :: rest
        | step -> step))
      d
  | "NOC-PORT" ->
    map_plan "v.col0"
      (List.map (function t :: rest -> t :: t :: rest | step -> step))
      d
  | "NOC-BYTES" ->
    map_plan "k.col1"
      (List.map (function _ :: rest -> rest | step -> step))
      d
  | "PIPE-MAP" ->
    {
      d with
      stage_map =
        (match d.stage_map with
        | _ :: b :: rest -> b :: b :: rest
        | short -> short);
    }
  | "BUF-OVFL" -> { d with max_context = 64 * 1024 * 1024 }
  | "SCHED-SLOT" -> { d with claimed_slots = d.claimed_slots - 17 }
  | "NOC-EXEC" ->
    (* Swap the head transfers of the reduce and broadcast phases: every
       chip's whole-plan byte tally is untouched (NOC-BYTES clean), but the
       root now merges a pre-reduction partial and one peer gets overwritten
       with it — the value is wrong. *)
    map_plan "q.col0"
      (function
        | [ t0 :: r0; u0 :: r1 ] -> [ u0 :: r0; t0 :: r1 ]
        | plan -> plan)
      d
  | "NOC-MAKESPAN" ->
    (* Serialize the broadcast phase into singleton steps: still computes
       the right value and conserves bytes, but roughly doubles the
       makespan — a Warning, not an Error. *)
    map_plan "q.col1"
      (function
        | [ reduce; bcast ] -> reduce :: List.map (fun t -> [ t ]) bcast
        | plan -> plan)
      d
  | "NOC-DEADLOCK" ->
    (* Every program collective starts with all members holding a value, so
       no forwarding can wait.  Declare column 3's Q collective a broadcast
       from chip 3 instead, and run it as a same-step forwarding ring among
       the three peers: each send can only forward what the same step
       delivers, and the wait-for graph closes on itself. *)
    let group = Topology.col_group 3 and bytes = 2048 in
    let t src dst = { Schedule.src; dst; bytes } in
    replace_entry "q.col3"
      (Schedule.Broadcast { root = 3; group; bytes })
      [ [ t 7 11; t 11 15; t 15 7 ] ]
      d
  | "NOC-DEFUSE" ->
    (* Same trick as the NOC-EXEC fixture, on another column: swapping the
       head transfers of the reduce and broadcast phases keeps every byte
       tally intact, but the root accumulates a pre-reduction value and one
       peer is overwritten with it — visible statically as wrong final
       contribution multisets. *)
    map_plan "q.col2"
      (function
        | [ t0 :: r0; u0 :: r1 ] -> [ u0 :: r0; t0 :: r1 ]
        | plan -> plan)
      d
  | "BUF-LIVE" ->
    (* Same ring all-gather, 32 MB shards: bytes, ports and values all stay
       clean, but one chip's working shard plus same-step RX and TX staging
       (3 x 32 MB) cannot fit in the headroom the 64K-context KV leaves in
       the 320 MB attention buffer. *)
    let coll =
      Schedule.All_gather
        { group = Topology.col_group 1; shard_bytes = 32_000_000 }
    in
    replace_entry "xo-gather.col1" coll (Schedule.canonical coll) d
  | "DET-LINT" ->
    { d with execution = { d.execution with Execution.workload_seed = Execution.Wall_clock } }
  | "THERM-DENS" ->
    (* Overdriven operating point: every block 60% hotter pushes the
       interconnect-engine hotspot past the 2 W/mm2 DLC limit while the
       junction stays legal. *)
    { d with power_scale = 1.6 }
  | "THERM-JCT" ->
    (* Facility loop at 95 C: densities are unchanged but the junction
       crosses 105 C. *)
    { d with coolant_c = 95.0 }
  | other -> invalid_arg ("Signoff.fixture: unknown rule " ^ other)
