open Hnlpu_util

let config = Hnlpu_model.Config.gpt_oss_120b

(* The nine artifacts in paper order with their titles, grouped into the
   pool jobs [all] runs: Figures 12 and 13 are one job, so one neuron
   build serves both. *)
let jobs =
  [
    [ ("Figure 2", "economics of hardwiring") ];
    [ ("Figure 12", "area comparison"); ("Figure 13", "time and energy comparison") ];
    [ ("Table 1", "single-chip characteristics") ];
    [ ("Table 2", "system-level comparison") ];
    [ ("Figure 14", "execution-time breakdown") ];
    [ ("Table 3", "3-year TCO and carbon") ];
    [ ("Table 4", "NRE on various models") ];
    [ ("Table 5", "HNLPU cost analysis") ];
  ]

let tolerance_text = function
  | Paper.Rel 0.0 -> "exact"
  | Rel p -> Printf.sprintf "%g%%" p
  | Pp p -> Printf.sprintf "%g pp" p
  | Band (lo, hi) -> Printf.sprintf "(%g, %g)" lo hi
  | Below b -> Printf.sprintf "< %g" b

let origin_text = function
  | Paper.Derived -> "derived"
  | Fitted f -> "fitted: `" ^ f.constant ^ "`"

(* Each artifact's table, a row per record; one [Paper.measures] pass
   measures the records of all of them. *)
let tables ?reports artifacts =
  let records = List.filter (fun (r : Paper.t) -> List.mem r.artifact artifacts) Paper.all in
  let rows = List.combine records (Paper.measures ?reports records) in
  List.map
    (fun artifact ->
      let t = Table.create ~headers:[ "Quantity"; "Paper"; "Measured"; "Tolerance"; "Origin" ] in
      List.iter
        (fun ((r : Paper.t), x) ->
          if r.artifact = artifact then
            Table.add_row t
              [
                r.row; Paper.printed r; r.show x; tolerance_text r.tolerance; origin_text r.origin;
              ])
        rows;
      t)
    artifacts

let titled ?reports job =
  List.map2
    (fun (artifact, title) t -> (artifact ^ ": " ^ title, t))
    job
    (tables ?reports (List.map fst job))

let run ?domains ?reports () =
  List.concat (Hnlpu_par.Par.parallel_map ?domains (titled ?reports) jobs)

let all ?domains () = run ?domains ()

let find name =
  (* "Table 1", "table1"; "Figure 12", "figure12", "fig12". *)
  let key s = String.lowercase_ascii (String.concat "" (String.split_on_char ' ' s)) in
  let short k =
    if String.starts_with ~prefix:"figure" k then "fig" ^ String.sub k 6 (String.length k - 6)
    else k
  in
  let k = key name in
  List.concat jobs
  |> List.find_opt (fun (artifact, _) -> key artifact = k || short (key artifact) = k)
  |> Option.map (fun job -> List.hd (titled [ job ]))

let constants () =
  let t = Table.create ~headers:[ "Constant"; "Value"; "Unit"; "Anchor"; "Fitted part" ] in
  List.iter
    (fun (f : Paper.fit) ->
      Table.add_row t
        [ "`" ^ f.constant ^ "`"; Printf.sprintf "%g" f.value; f.unit_; f.anchor;
          f.derived_fraction_note ])
    Paper.fits;
  t

(* Area bars normalized to the first report (the MA SRAM). *)
let figure12_chart reports =
  let open Hnlpu_neuron in
  let baseline = List.hd reports in
  Chart.bar
    (List.map
       (fun r -> (r.Report.design, Report.area_ratio r ~baseline))
       reports)

(* Energy bars on a log scale (the paper's axis). *)
let figure13_chart reports =
  let tech = Hnlpu_gates.Tech.n5 in
  Chart.bar ~log:true
    (List.map
       (fun r ->
         (r.Hnlpu_neuron.Report.design, Hnlpu_neuron.Report.energy_j tech r *. 1e9))
       reports)

let figure14_chart () =
  let open Hnlpu_system in
  Chart.stacked
    ~legend:[ "CXL comm"; "projection"; "non-linear"; "attention"; "stall" ]
    (List.map
       (fun (l, b) ->
         ( Printf.sprintf "%4dK" (l / 1024),
           [ b.Perf.comm_s; b.Perf.projection_s; b.Perf.nonlinear_s;
             b.Perf.attention_s; b.Perf.stall_s ] ))
       (Perf.figure14 config))

let slug name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Char.lowercase_ascii c
      | _ -> '_')
    name

let export_with ~dir ~ext ~serialize =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.map
    (fun (name, table) ->
      let short =
        match String.index_opt name ':' with
        | Some i -> String.sub name 0 i
        | None -> name
      in
      let path = Filename.concat dir (slug short ^ ext) in
      let oc = open_out path in
      output_string oc (serialize table);
      close_out oc;
      path)
    (all ())

let export_csv ~dir = export_with ~dir ~ext:".csv" ~serialize:Table.to_csv

let export_json ~dir = export_with ~dir ~ext:".json" ~serialize:Table.to_json

let render_all () =
  (* One neuron build serves Figures 12 and 13, their tables and charts. *)
  let reports = Paper.neuron_reports () in
  let table (name, t) =
    Printf.sprintf "%s\n%s\n%s" name (String.make (String.length name) '-') (Table.render t)
  in
  let chart (title, chart) = Printf.sprintf "\n%s\n%s" title chart in
  String.concat "\n" (List.map table (run ~reports ()))
  ^ String.concat ""
      (List.map chart
         [
           ("Figure 12 (area vs the MA SRAM baseline)", figure12_chart reports);
           ("Figure 13 (energy per GEMV, log scale, nJ)", figure13_chart reports);
           ("Figure 14 (execution-time breakdown per token)", figure14_chart ());
         ])

(* --- EXPERIMENTS.md's generated tables ------------------------------------- *)

let generated name =
  let table =
    if name = "calibrated constants" then constants ()
    else if List.exists (fun (r : Paper.t) -> r.artifact = name) Paper.all then
      List.hd (tables [ name ])
    else failwith ("Experiments.refresh: no generated table named " ^ name)
  in
  (* The lines of the block, without the last one's newline. *)
  let md = Table.to_markdown table in
  String.sub md 0 (String.length md - 1)

let opening = "<!-- generated: " and closing = "<!-- end generated -->"

let refresh doc =
  let rec go acc = function
    | [] -> List.rev acc
    | line :: rest when String.starts_with ~prefix:opening line ->
      let start = String.length opening in
      let name = String.sub line start (String.length line - start - String.length " -->") in
      let rec skip = function
        | [] -> failwith ("Experiments.refresh: unclosed table " ^ name)
        | l :: rest -> if l = closing then rest else skip rest
      in
      go (closing :: generated name :: line :: acc) (skip rest)
    | line :: rest -> go (line :: acc) rest
  in
  String.concat "\n" (go [] (String.split_on_char '\n' doc))
