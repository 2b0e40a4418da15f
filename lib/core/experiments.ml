open Hnlpu_util

let config = Hnlpu_model.Config.gpt_oss_120b

(* Chart and Table come from Hnlpu_util via the open above. *)

let figure2 () =
  let open Hnlpu_litho.Strawman in
  let gpu = gpu_economics () in
  let hw = hardwired_economics config in
  let t =
    Table.create ~headers:[ "Economics"; gpu.label; hw.label ]
  in
  let row label f = Table.add_row t [ label; f gpu; f hw ] in
  row "Mask sets" (fun a -> string_of_int a.mask_sets);
  row "Mask bill" (fun a -> Units.dollars a.mask_bill_usd);
  row "Wafers" (fun a -> Units.group_thousands a.wafers);
  row "Wafer bill" (fun a -> Units.dollars a.wafer_bill_usd);
  row "Units produced" (fun a -> Units.group_thousands a.units);
  Table.add_sep t;
  row "Cost per unit" (fun a -> Units.dollars a.cost_per_unit_usd);
  t

let neuron_reports ?(seed = 20260706) () =
  let open Hnlpu_neuron in
  let bank = Bank.of_gemv (Gemv.paper_benchmark (Rng.create seed)) in
  [ Mac_array.ppa bank; Cell_embedding.ppa bank; Metal_embedding.ppa bank ]

(* Figures 12 and 13 are drawn from one set of reports, so [all] prices
   the bank once for both. *)
let area_table reports =
  let open Hnlpu_neuron in
  let baseline = List.hd reports in
  let t = Table.create ~headers:[ "Design"; "Area (mm2)"; "vs 64KB SRAM (paper)" ] in
  let paper = [ "1.00x"; "14.3x"; "0.95x" ] in
  List.iteri
    (fun i r ->
      Table.add_row t
        [
          r.Report.design;
          Printf.sprintf "%.4f" r.Report.area_mm2;
          Printf.sprintf "%.2fx (%s)" (Report.area_ratio r ~baseline) (List.nth paper i);
        ])
    reports;
  t

let energy_table reports =
  let tech = Hnlpu_gates.Tech.n5 in
  let t =
    Table.create
      ~headers:[ "Design"; "Execution cycles"; "Energy (nJ)"; "Leakage (mW)" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.Hnlpu_neuron.Report.design;
          string_of_int r.Hnlpu_neuron.Report.cycles;
          Printf.sprintf "%.2f" (Hnlpu_neuron.Report.energy_j tech r *. 1e9);
          Printf.sprintf "%.2f" (r.Hnlpu_neuron.Report.leakage_power_w *. 1e3);
        ])
    reports;
  t

let figure12 () = area_table (neuron_reports ())

let figure13 () = energy_table (neuron_reports ())

let table1 () = Hnlpu_chip.Floorplan.to_table (Hnlpu_chip.Floorplan.table1 ())

let table2 () =
  let open Hnlpu_baseline.Compare in
  let systems = table2 () in
  let t = to_table systems in
  (match systems with
  | [ hn; gpu; wse ] ->
    Table.add_sep t;
    Table.add_row t
      [
        "Throughput ratio";
        "1x";
        Units.ratio ~digits:0 (throughput_ratio hn ~over:gpu);
        Units.ratio ~digits:0 (throughput_ratio hn ~over:wse);
      ];
    Table.add_row t
      [
        "Efficiency ratio";
        "1x";
        Units.ratio ~digits:0 (efficiency_ratio hn ~over:gpu);
        Units.ratio ~digits:0 (efficiency_ratio hn ~over:wse);
      ]
  | _ -> ());
  t

let figure14 () =
  let open Hnlpu_system in
  let t =
    Table.create
      ~headers:
        [ "Context"; "Total (us)"; "CXL Comm."; "Projection"; "Non-linear";
          "Attention"; "Stall" ]
  in
  List.iter
    (fun (l, b) ->
      let f = Perf.fractions b in
      let pct x = Units.percent ~digits:1 x in
      Table.add_row t
        [
          Printf.sprintf "%dK" (l / 1024);
          Printf.sprintf "%.1f" (Perf.total_s b *. 1e6);
          pct f.Perf.comm_s;
          pct f.Perf.projection_s;
          pct f.Perf.nonlinear_s;
          pct f.Perf.attention_s;
          pct f.Perf.stall_s;
        ])
    (Perf.figure14 config);
  t

let table3 () = Hnlpu_tco.Tco.to_table ()

let table4 () =
  let t =
    Table.create
      ~headers:[ "Model"; "Params"; "bits/param"; "Chips"; "NRE"; "Paper NRE" ]
  in
  List.iter
    (fun r ->
      let open Hnlpu_litho.Model_nre in
      Table.add_row t
        [
          r.model;
          Units.si ~digits:0 r.params;
          Printf.sprintf "%.1f" r.bits_per_param;
          Printf.sprintf "%.1f" r.chips;
          Units.dollars_m r.nre_usd;
          (match r.paper_nre_usd with
          | Some p -> Units.dollars_m p
          | None -> "-");
        ])
    (Hnlpu_litho.Model_nre.table4 ());
  t

let table5 () = Hnlpu_tco.Cost_breakdown.to_table ()

let all ?domains () =
  (* Each job is an independent pure thunk yielding one or more artifacts;
     building them across the domain pool keeps paper order because
     collection is by index.  Figures 12 and 13 are one job, sharing one
     neuron build. *)
  let one name thunk () = [ (name, thunk ()) ] in
  List.concat
    (Hnlpu_par.Par.parallel_map ?domains
       (fun job -> job ())
       [
         one "Figure 2: economics of hardwiring" figure2;
         (fun () ->
           let reports = neuron_reports () in
           [
             ("Figure 12: area comparison", area_table reports);
             ("Figure 13: time and energy comparison", energy_table reports);
           ]);
         one "Table 1: single-chip characteristics" table1;
         one "Table 2: system-level comparison" table2;
         one "Figure 14: execution-time breakdown" figure14;
         one "Table 3: 3-year TCO and carbon" table3;
         one "Table 4: NRE on various models" table4;
         one "Table 5: HNLPU cost analysis" table5;
       ])

let figure12_chart reports =
  let open Hnlpu_neuron in
  let baseline = List.hd reports in
  Chart.bar
    (List.map
       (fun r -> (r.Report.design, Report.area_ratio r ~baseline))
       reports)

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
  String.concat "\n"
    (List.map
       (fun (name, t) ->
         Printf.sprintf "%s\n%s\n%s" name (String.make (String.length name) '-')
           (Table.render t))
       (all ()))
