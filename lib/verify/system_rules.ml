open Hnlpu_model
open Hnlpu_chip
open Hnlpu_system

type stage_slot = { layer : int; stage : int }

let stages_per_layer = List.length Perf.stage_names

let canonical_stage_map (c : Config.t) =
  List.concat
    (List.init c.Config.num_layers (fun layer ->
         List.init stages_per_layer (fun stage -> { layer; stage })))

let pipeline_mapping ~subject (c : Config.t) slots =
  let layers = c.Config.num_layers in
  let out_of_range, in_range =
    List.partition
      (fun s -> s.layer < 0 || s.layer >= layers || s.stage < 0 || s.stage >= stages_per_layer)
      slots
  in
  let range_errors =
    List.map
      (fun s ->
        Diagnostic.error ~rule:"PIPE-MAP" ~subject
          "slot (layer %d, stage %d) outside the %d x %d pipeline" s.layer
          s.stage layers stages_per_layer)
      out_of_range
  in
  let count = Array.make_matrix layers stages_per_layer 0 in
  List.iter (fun s -> count.(s.layer).(s.stage) <- count.(s.layer).(s.stage) + 1) in_range;
  let coverage_errors = ref [] in
  for layer = layers - 1 downto 0 do
    for stage = stages_per_layer - 1 downto 0 do
      if count.(layer).(stage) = 0 then
        coverage_errors :=
          Diagnostic.error ~rule:"PIPE-MAP" ~subject
            "layer %d stage %d (%s) is unmapped" layer stage
            (List.nth Perf.stage_names stage)
          :: !coverage_errors
      else if count.(layer).(stage) > 1 then
        coverage_errors :=
          Diagnostic.error ~rule:"PIPE-MAP" ~subject
            "layer %d stage %d mapped %d times" layer stage count.(layer).(stage)
          :: !coverage_errors
    done
  done;
  match range_errors @ !coverage_errors with
  | [] ->
    [
      Diagnostic.info ~rule:"PIPE-MAP" ~subject
        "all %d layer-stages mapped exactly once onto %d pipeline slots"
        (layers * stages_per_layer) (Perf.pipeline_slots c);
    ]
  | errors -> errors

let weight_partition ~subject (c : Config.t) =
  match Mapping.check_mappable c with
  | exception Invalid_argument msg ->
    [ Diagnostic.error ~rule:"PIPE-MAP" ~subject "not mappable: %s" msg ]
  | () ->
    (* Each projection must be tiled exactly: distinct chip slices whose
       areas sum to the full matrix. *)
    let tile name rows cols slice_of =
      let seen = Hashtbl.create 16 in
      let area = ref 0 in
      let errors = ref [] in
      List.iter
        (fun chip ->
          let s = slice_of ~chip in
          let key = (s.Mapping.row_lo, s.Mapping.col_lo) in
          if Hashtbl.mem seen key then
            errors :=
              Diagnostic.error ~rule:"PIPE-MAP" ~subject
                "%s slice at (%d, %d) owned by two chips" name s.Mapping.row_lo
                s.Mapping.col_lo
              :: !errors
          else Hashtbl.add seen key ();
          area := !area + (s.Mapping.row_len * s.Mapping.col_len))
        Hnlpu_noc.Topology.all_chips;
      if !area <> rows * cols then
        errors :=
          Diagnostic.error ~rule:"PIPE-MAP" ~subject
            "%s slices cover %d of %d weights" name !area (rows * cols)
          :: !errors;
      !errors
    in
    let h = c.Config.hidden in
    let errors =
      tile "Wq" h (Config.q_dim c) (Mapping.wq_slice c)
      @ tile "Wk" h (Config.kv_dim c) (Mapping.wk_slice c)
      @ tile "Wv" h (Config.kv_dim c) (Mapping.wv_slice c)
      @ tile "Wo" (Config.q_dim c) h (Mapping.wo_slice c)
      @
      (* Every expert on exactly one chip, and chips agree with the
         round-robin inverse.  Each chip's expert list is built once. *)
      let chip_experts =
        List.map
          (fun chip -> (chip, Mapping.experts_of_chip c ~chip))
          Hnlpu_noc.Topology.all_chips
      in
      List.concat
        (List.init c.Config.experts (fun e ->
             let owner = Mapping.chip_of_expert c ~expert:e in
             let owners =
               List.filter_map
                 (fun (chip, experts) -> if List.mem e experts then Some chip else None)
                 chip_experts
             in
             if owners = [ owner ] then []
             else
               [
                 Diagnostic.error ~rule:"PIPE-MAP" ~subject
                   "expert %d owned by %d chip(s), expected exactly chip %d" e
                   (List.length owners) owner;
               ]))
    in
    if errors = [] then
      [
        Diagnostic.info ~rule:"PIPE-MAP" ~subject
          "Wq/Wk/Wv/Wo tiled exactly across 16 chips; %d experts singly owned"
          c.Config.experts;
      ]
    else errors

let buffer_budget ~subject
    (c : Config.t) ~max_context =
  if max_context < 0 then
    [ Diagnostic.error ~rule:"BUF-OVFL" ~subject "negative max context %d" max_context ]
  else begin
    let per_pos = Attention_buffer.kv_bytes_per_position_per_chip c in
    let rows = Hnlpu_noc.Topology.rows in
    (* Worst case: the chip owning ceil(context / 4) of the striped
       positions. *)
    let worst_positions = (max_context + rows - 1) / rows in
    let need = per_pos * worst_positions in
    let cap = Attention_buffer.capacity_bytes Attention_buffer.hnlpu in
    if need <= cap then
      [
        Diagnostic.info ~rule:"BUF-OVFL" ~subject
          "worst-case KV occupancy %.1f MB of %.1f MB at context %d — fits on \
           chip"
          (float_of_int need /. 1e6)
          (float_of_int cap /. 1e6)
          max_context;
      ]
    else begin
      let spill_resident = float_of_int (need - cap) in
      if spill_resident > Hbm.capacity_bytes Hbm.hnlpu then
        [
          Diagnostic.error ~rule:"BUF-OVFL" ~subject
            "context %d spills %.1f GB of KV per chip — beyond the %.0f GB \
             HBM capacity"
            max_context (spill_resident /. 1e9)
            (Hbm.capacity_bytes Hbm.hnlpu /. 1e9);
        ]
      else begin
        let per_token = Attention_buffer.spilled_bytes_per_token Attention_buffer.hnlpu c ~context:max_context in
        let fetch_s = Hbm.fetch_time_s Hbm.hnlpu ~bytes:per_token in
        let token_s = Perf.token_latency_s c ~context:max_context in
        if fetch_s > token_s then
          [
            Diagnostic.error ~rule:"BUF-OVFL" ~subject
              "context %d: HBM needs %.1f us to stream the spilled KV for one \
               token, but the token budget is %.1f us"
              max_context (fetch_s *. 1e6) (token_s *. 1e6);
          ]
        else
          [
            Diagnostic.warning ~rule:"BUF-OVFL" ~subject
              "context %d spills %.1f GB of KV per chip to HBM (prefetch \
               covers %.1f us of %.1f us per token)"
              max_context (spill_resident /. 1e9) (fetch_s *. 1e6)
              (token_s *. 1e6);
          ]
      end
    end
  end

let scheduler_slots ~subject (c : Config.t) ~claimed_slots =
  let slots = Perf.pipeline_slots c in
  let errors =
    (if slots <> stages_per_layer * c.Config.num_layers then
       [
         Diagnostic.error ~rule:"SCHED-SLOT" ~subject
           "design exposes %d slots, inconsistent with %d stages x %d layers"
           slots stages_per_layer c.Config.num_layers;
       ]
     else [])
    @
    if claimed_slots <> slots then
      [
        Diagnostic.error ~rule:"SCHED-SLOT" ~subject
          "deployment schedules %d slots; the design exposes %d (%d stages x \
           %d layers)"
          claimed_slots slots stages_per_layer c.Config.num_layers;
      ]
    else []
  in
  if errors = [] then
    [
      Diagnostic.info ~rule:"SCHED-SLOT" ~subject
        "%d pipeline slots (%d stages x %d layers)" slots stages_per_layer
        c.Config.num_layers;
    ]
  else errors
