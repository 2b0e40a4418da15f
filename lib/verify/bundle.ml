open Hnlpu_fp4
open Hnlpu_neuron
open Hnlpu_litho
open Hnlpu_noc
open Hnlpu_model

let log_src = Logs.Src.create "hnlpu.bundle" ~doc:"Design-bundle loading"

module Log = (val Logs.src_log log_src : Logs.LOG)

let fail path line fmt =
  Printf.ksprintf
    (fun s -> failwith (Printf.sprintf "%s:%d: %s" path line s))
    fmt

let read_lines path =
  let ic =
    try open_in path
    with Sys_error msg -> failwith (Printf.sprintf "bundle: %s" msg)
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let is_blank s = String.trim s = ""

let is_comment s =
  let s = String.trim s in
  String.length s > 0 && s.[0] = '#'

(* Numbered payload lines: comments and blanks dropped, source line kept for
   error messages. *)
let payload_lines path =
  List.filteri (fun _ _ -> true) (read_lines path)
  |> List.mapi (fun i line -> (i + 1, line))
  |> List.filter (fun (_, l) -> not (is_blank l || is_comment l))

(* --- Manifest ------------------------------------------------------------- *)

let known_configs =
  [
    Config.gpt_oss_120b; Config.gpt_oss_20b; Config.gpt_oss_120b_sw;
    Config.tiny; Config.tiny_dense; Config.tiny_hnlpu;
  ]
  @ Config.table4_models

let config_by_name path line name =
  match
    List.find_opt (fun (c : Config.t) -> c.Config.name = name) known_configs
  with
  | Some c -> c
  | None ->
    fail path line "unknown config %S (known: %s)" name
      (String.concat ", "
         (List.map (fun (c : Config.t) -> c.Config.name) known_configs))

type manifest = {
  m_config : Config.t;
  m_claimed_slots : int;
  m_max_context : int;
  m_power_scale : float;
  m_coolant_c : float;
  m_execution : Hnlpu_system.Execution.t;
}

let parse_manifest path =
  let assoc =
    List.map
      (fun (line, s) ->
        match String.index_opt s '=' with
        | None -> fail path line "expected 'key = value', got %S" s
        | Some i ->
          ( String.trim (String.sub s 0 i),
            String.trim (String.sub s (i + 1) (String.length s - i - 1)),
            line ))
      (payload_lines path)
  in
  let find key = List.find_opt (fun (k, _, _) -> k = key) assoc in
  let required key =
    match find key with
    | Some (_, v, line) -> (v, line)
    | None -> fail path 0 "missing required key %S" key
  in
  let int_of key (v, line) =
    match int_of_string_opt v with
    | Some n -> n
    | None -> fail path line "%s: expected an integer, got %S" key v
  in
  let float_of key (v, line) =
    match float_of_string_opt v with
    | Some x -> x
    | None -> fail path line "%s: expected a number, got %S" key v
  in
  let optional_float key default =
    match find key with
    | Some (_, v, line) -> float_of key (v, line)
    | None -> default
  in
  let known =
    [
      "config"; "claimed-slots"; "max-context"; "power-scale"; "coolant-c";
      "workload-seed"; "sink-merge"; "export-order"; "domains";
    ]
  in
  List.iter
    (fun (k, _, line) ->
      if not (List.mem k known) then
        Log.warn (fun m ->
            m "%s:%d: ignoring unknown manifest key %S (known: %s)" path line k
              (String.concat ", " known)))
    assoc;
  let config_name, config_line = required "config" in
  (* Execution keys are optional (absent = the deterministic defaults), but
     a present key must parse — a typo silently reverting to the default
     would defeat the DET-LINT declaration. *)
  let module E = Hnlpu_system.Execution in
  let optional_parsed key parser ~expected default =
    match find key with
    | None -> default
    | Some (_, v, line) -> (
      match parser v with
      | Some x -> x
      | None -> fail path line "%s: expected %s, got %S" key expected v)
  in
  let execution =
    {
      E.workload_seed =
        optional_parsed "workload-seed" E.seeding_of_string
          ~expected:"an integer or 'wall-clock'"
          E.deterministic.E.workload_seed;
      E.sink_merge =
        optional_parsed "sink-merge" E.merge_order_of_string
          ~expected:"'rate-order' or 'completion-order'"
          E.deterministic.E.sink_merge;
      E.export_order =
        optional_parsed "export-order" E.export_order_of_string
          ~expected:"'sorted' or 'hash-order'" E.deterministic.E.export_order;
      E.domains =
        optional_parsed "domains"
          (fun v -> Option.map Option.some (int_of_string_opt v))
          ~expected:"an integer" E.deterministic.E.domains;
    }
  in
  {
    m_config = config_by_name path config_line config_name;
    m_claimed_slots = int_of "claimed-slots" (required "claimed-slots");
    m_max_context = int_of "max-context" (required "max-context");
    m_power_scale = optional_float "power-scale" 1.0;
    m_coolant_c = optional_float "coolant-c" Hnlpu_chip.Thermal.coolant_c;
    m_execution = execution;
  }

(* --- Schematics ----------------------------------------------------------- *)

let parse_schematic path =
  match read_lines path with
  | [] -> fail path 0 "empty schematic"
  | header :: rows ->
    let in_f, out_f, act_bits =
      try
        Scanf.sscanf header "# hn-schematic in=%d out=%d act-bits=%d"
          (fun a b c -> (a, b, c))
      with Scanf.Scan_failure _ | Failure _ | End_of_file ->
        fail path 1 "bad header %S (want '# hn-schematic in=N out=N act-bits=N')"
          header
    in
    let rows = List.filter (fun r -> not (is_blank r)) rows in
    if List.length rows <> out_f then
      fail path 1 "expected %d weight rows, found %d" out_f (List.length rows);
    let weights =
      Array.of_list
        (List.mapi
           (fun r row ->
             let codes =
               String.split_on_char ' ' row
               |> List.filter (fun t -> t <> "")
               |> List.map (fun t ->
                      match int_of_string_opt t with
                      | Some c when c >= 0 && c < 16 -> Fp4.of_code c
                      | _ -> fail path (r + 2) "bad E2M1 code %S" t)
             in
             if List.length codes <> in_f then
               fail path (r + 2) "row has %d codes, expected %d"
                 (List.length codes) in_f;
             Array.of_list codes)
           rows)
    in
    Gemv.make ~weights ~act_bits

let schematic_to_string (g : Gemv.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "# hn-schematic in=%d out=%d act-bits=%d\n" g.Gemv.in_features
       g.Gemv.out_features g.Gemv.act_bits);
  for o = 0 to g.Gemv.out_features - 1 do
    for i = 0 to g.Gemv.in_features - 1 do
      if i > 0 then Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int (Fp4.code (Gemv.code g o i)))
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

(* When a bundle ships no schematic, LVS runs against what the wires
   themselves encode; if even extraction fails, an all-zero schematic makes
   ME-LVS surface the discrepancy instead of the loader crashing. *)
let schematic_of_netlist (n : Hn_compiler.netlist) =
  let weights =
    try Hn_compiler.extract_weights n
    with _ ->
      Array.make_matrix n.Hn_compiler.out_features n.Hn_compiler.in_features
        Fp4.zero
  in
  Gemv.make ~weights ~act_bits:8

(* --- Plans ---------------------------------------------------------------- *)

let parse_group path line s =
  String.split_on_char ' ' s
  |> List.filter (fun t -> t <> "")
  |> List.map (fun t ->
         match int_of_string_opt t with
         | Some c -> c
         | None -> fail path line "bad chip id %S in group" t)

let parse_plan path =
  let name = ref None in
  let kind = ref None in
  let group = ref None in
  let root = ref None in
  let bytes = ref None in
  let shard_bytes = ref None in
  let steps = ref [] in
  (* Transfers of the step being parsed, reversed. *)
  let current = ref None in
  let flush () =
    match !current with
    | None -> ()
    | Some ts -> steps := List.rev ts :: !steps
  in
  let int_field field line v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> fail path line "%s: expected an integer, got %S" field v
  in
  List.iter
    (fun (line, s) ->
      let s = String.trim s in
      match String.index_opt s ' ' with
      | _ when s = "step" ->
        flush ();
        current := Some []
      | None -> fail path line "unexpected token %S" s
      | Some i -> (
        let key = String.sub s 0 i in
        let rest = String.trim (String.sub s i (String.length s - i)) in
        match key with
        | "name" -> name := Some rest
        | "collective" -> kind := Some (rest, line)
        | "group" -> group := Some (parse_group path line rest)
        | "root" -> root := Some (int_field "root" line rest)
        | "bytes" -> bytes := Some (int_field "bytes" line rest)
        | "shard-bytes" -> shard_bytes := Some (int_field "shard-bytes" line rest)
        | _ -> (
          (* A transfer: "SRC -> DST : BYTES". *)
          match
            Scanf.sscanf s "%d -> %d : %d" (fun a b c -> Some (a, b, c))
          with
          | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
            fail path line "expected a header key, 'step', or 'SRC -> DST : BYTES', got %S" s
          | None -> assert false
          | Some (src, dst, b) -> (
            match !current with
            | None -> fail path line "transfer before the first 'step'"
            | Some ts ->
              current := Some ({ Schedule.src; dst; bytes = b } :: ts)))))
    (payload_lines path);
  flush ();
  let plan = List.rev !steps in
  let req field = function
    | Some v -> v
    | None -> fail path 0 "missing required key %S" field
  in
  let the_group () = req "group" !group in
  let the_root () = req "root" !root in
  let the_bytes () = req "bytes" !bytes in
  let the_shard () = req "shard-bytes" !shard_bytes in
  let coll =
    match req "collective" !kind with
    | "reduce", _ ->
      Schedule.Reduce
        { root = the_root (); group = the_group (); bytes = the_bytes () }
    | "broadcast", _ ->
      Schedule.Broadcast
        { root = the_root (); group = the_group (); bytes = the_bytes () }
    | "all-reduce", _ ->
      Schedule.All_reduce { group = the_group (); bytes = the_bytes () }
    | "all-gather", _ ->
      Schedule.All_gather
        { group = the_group (); shard_bytes = the_shard () }
    | "scatter", _ ->
      Schedule.Scatter
        { root = the_root (); group = the_group (); shard_bytes = the_shard () }
    | "all-chip-all-reduce", _ ->
      Schedule.All_chip_all_reduce { bytes = the_bytes () }
    | other, line -> fail path line "unknown collective kind %S" other
  in
  (req "name" !name, coll, plan)

let plan_to_string name coll (plan : Schedule.t) =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let group g = String.concat " " (List.map string_of_int g) in
  add "# hnlpu collective plan\n";
  add "name %s\n" name;
  (match coll with
  | Schedule.Reduce { root; group = g; bytes } ->
    add "collective reduce\nroot %d\ngroup %s\nbytes %d\n" root (group g) bytes
  | Schedule.Broadcast { root; group = g; bytes } ->
    add "collective broadcast\nroot %d\ngroup %s\nbytes %d\n" root (group g)
      bytes
  | Schedule.All_reduce { group = g; bytes } ->
    add "collective all-reduce\ngroup %s\nbytes %d\n" (group g) bytes
  | Schedule.All_gather { group = g; shard_bytes } ->
    add "collective all-gather\ngroup %s\nshard-bytes %d\n" (group g)
      shard_bytes
  | Schedule.Scatter { root; group = g; shard_bytes } ->
    add "collective scatter\nroot %d\ngroup %s\nshard-bytes %d\n" root
      (group g) shard_bytes
  | Schedule.All_chip_all_reduce { bytes } ->
    add "collective all-chip-all-reduce\nbytes %d\n" bytes);
  List.iter
    (fun step ->
      add "step\n";
      List.iter
        (fun { Schedule.src; dst; bytes } -> add "%d -> %d : %d\n" src dst bytes)
        step)
    plan;
  Buffer.contents buf

(* --- Stage map ------------------------------------------------------------ *)

let parse_stage_map path =
  List.map
    (fun (line, s) ->
      match
        Scanf.sscanf (String.trim s) "%d %d" (fun l st -> (l, st))
      with
      | l, st -> { System_rules.layer = l; stage = st }
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
        fail path line "expected 'LAYER STAGE', got %S" s)
    (payload_lines path)

let stage_map_to_string slots =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# layer stage\n";
  List.iter
    (fun { System_rules.layer; stage } ->
      Buffer.add_string buf (Printf.sprintf "%d %d\n" layer stage))
    slots;
  Buffer.contents buf

(* --- Whole-bundle load / export ------------------------------------------- *)

let chip_file dir sub chip ext =
  Filename.concat (Filename.concat dir sub) (Printf.sprintf "chip%02d.%s" chip ext)

let load dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    failwith (Printf.sprintf "bundle: %s is not a directory" dir);
  let manifest = parse_manifest (Filename.concat dir "manifest") in
  let chips =
    List.map
      (fun chip ->
        let tcl_path = chip_file dir "netlists" chip "tcl" in
        let netlist =
          try Hn_compiler.of_tcl (String.concat "\n" (read_lines tcl_path))
          with Failure msg -> failwith (Printf.sprintf "%s: %s" tcl_path msg)
        in
        let sch_path = chip_file dir "schematics" chip "sch" in
        let schematic =
          if Sys.file_exists sch_path then parse_schematic sch_path
          else begin
            Log.info (fun m ->
                m "%s: no schematic, deriving LVS reference from the netlist"
                  sch_path);
            schematic_of_netlist netlist
          end
        in
        { Signoff.chip; netlist; schematic })
      Topology.all_chips
  in
  let plans_dir = Filename.concat dir "plans" in
  let plans =
    if not (Sys.file_exists plans_dir) then begin
      Log.warn (fun m ->
          m "%s: no plans directory — NoC schedule rules will not run" plans_dir);
      []
    end
    else
      Sys.readdir plans_dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".plan")
      |> List.sort compare
      |> List.map (fun f -> parse_plan (Filename.concat plans_dir f))
  in
  let stage_path = Filename.concat dir "stage_map" in
  let stage_map =
    if Sys.file_exists stage_path then parse_stage_map stage_path
    else begin
      Log.info (fun m ->
          m "%s: no stage_map, assuming the canonical pipeline mapping"
            stage_path);
      System_rules.canonical_stage_map manifest.m_config
    end
  in
  {
    Signoff.config = manifest.m_config;
    chips;
    plans;
    stage_map;
    claimed_slots = manifest.m_claimed_slots;
    max_context = manifest.m_max_context;
    power_scale = manifest.m_power_scale;
    coolant_c = manifest.m_coolant_c;
    execution = manifest.m_execution;
  }

let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let write_file path content =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.' | '_' -> c
      | _ -> '-')
    name

let export ~dir (d : Signoff.design) =
  ensure_dir dir;
  ensure_dir (Filename.concat dir "netlists");
  ensure_dir (Filename.concat dir "schematics");
  ensure_dir (Filename.concat dir "plans");
  let written = ref [] in
  let emit path content =
    write_file path content;
    written := path :: !written
  in
  let module E = Hnlpu_system.Execution in
  emit (Filename.concat dir "manifest")
    (Printf.sprintf
       "# hnlpu bundle manifest\n\
        config = %s\n\
        claimed-slots = %d\n\
        max-context = %d\n\
        power-scale = %g\n\
        coolant-c = %g\n\
        workload-seed = %s\n\
        sink-merge = %s\n\
        export-order = %s\n\
        %s"
       d.Signoff.config.Config.name d.Signoff.claimed_slots
       d.Signoff.max_context d.Signoff.power_scale d.Signoff.coolant_c
       (E.seeding_to_string d.Signoff.execution.E.workload_seed)
       (E.merge_order_to_string d.Signoff.execution.E.sink_merge)
       (E.export_order_to_string d.Signoff.execution.E.export_order)
       (match d.Signoff.execution.E.domains with
       | None -> ""
       | Some n -> Printf.sprintf "domains = %d\n" n));
  List.iter
    (fun cd ->
      emit
        (chip_file dir "netlists" cd.Signoff.chip "tcl")
        (Hn_compiler.to_tcl cd.Signoff.netlist);
      emit
        (chip_file dir "schematics" cd.Signoff.chip "sch")
        (schematic_to_string cd.Signoff.schematic))
    d.Signoff.chips;
  List.iteri
    (fun i (name, coll, plan) ->
      emit
        (Filename.concat
           (Filename.concat dir "plans")
           (Printf.sprintf "plan%02d-%s.plan" i (sanitize name)))
        (plan_to_string name coll plan))
    d.Signoff.plans;
  emit (Filename.concat dir "stage_map") (stage_map_to_string d.Signoff.stage_map);
  List.rev !written
