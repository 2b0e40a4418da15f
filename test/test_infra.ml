(* Tests for the reporting/infrastructure pieces added alongside the
   experiments: charts, CSV export, and the chart renderings of the
   paper's figures. *)

open Hnlpu_util

(* --- Chart --------------------------------------------------------------- *)

let test_bar_renders () =
  let s = Chart.bar [ ("alpha", 1.0); ("beta", 2.0); ("gamma", 0.5) ] in
  Alcotest.(check bool) "labels present" true
    (Thelp.contains s "alpha" && Thelp.contains s "gamma");
  (* beta has the longest bar. *)
  let lines = String.split_on_char '\n' s in
  let hashes l = List.length (String.split_on_char '#' l) in
  (match lines with
  | [ a; b; g; _ ] ->
    Alcotest.(check bool) "beta longest" true (hashes b > hashes a && hashes b > hashes g)
  | _ -> Alcotest.fail "expected three bars")

let test_bar_log_scale () =
  let s = Chart.bar ~log:true [ ("x", 0.1); ("y", 10.0) ] in
  Alcotest.(check bool) "renders" true (String.length s > 0);
  Alcotest.(check bool) "log rejects non-positive" true
    (try
       ignore (Chart.bar ~log:true [ ("x", 0.0) ]);
       false
     with Invalid_argument _ -> true)

let test_stacked_width_exact () =
  let s =
    Chart.stacked ~width:40 ~legend:[ "a"; "b"; "c" ]
      [ ("r1", [ 1.0; 2.0; 1.0 ]); ("r2", [ 0.0; 1.0; 0.0 ]) ]
  in
  (* Every bar between the pipes must be exactly 40 chars. *)
  String.split_on_char '\n' s
  |> List.iter (fun line ->
         match String.index_opt line '|' with
         | Some i when String.length line > i + 1 && line.[String.length line - 1] = '|' ->
           Alcotest.(check int) "bar width" 40 (String.length line - i - 2)
         | _ -> ())

let test_stacked_validation () =
  Alcotest.(check bool) "arity mismatch" true
    (try
       ignore (Chart.stacked ~legend:[ "a" ] [ ("r", [ 1.0; 2.0 ]) ]);
       false
     with Invalid_argument _ -> true)

let test_sparkline () =
  let s = Chart.sparkline [| 0.0; 0.5; 1.0 |] in
  Alcotest.(check int) "one char per point" 3 (String.length s);
  Alcotest.(check char) "low" '.' s.[0];
  Alcotest.(check char) "high" '@' s.[2]

(* --- CSV ----------------------------------------------------------------- *)

let test_csv_roundtrip_structure () =
  let t = Table.create ~headers:[ "a"; "b" ] in
  Table.add_row t [ "1"; "x,y" ];
  Table.add_sep t;
  Table.add_row t [ "2"; "quote\"d" ];
  let csv = Table.to_csv t in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 2 rows (separator dropped)" 3 (List.length lines);
  Alcotest.(check bool) "comma cell quoted" true (Thelp.contains csv "\"x,y\"");
  Alcotest.(check bool) "quote escaped" true (Thelp.contains csv "\"quote\"\"d\"")

let test_experiments_export_csv () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "hnlpu_csv_test" in
  let paths = Hnlpu.Experiments.export_csv ~dir in
  Alcotest.(check int) "nine files" 9 (List.length paths);
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ " exists") true (Sys.file_exists p);
      let ic = open_in p in
      let header = input_line ic in
      close_in ic;
      Alcotest.(check bool) "non-empty header" true (String.length header > 2))
    paths;
  List.iter Sys.remove paths;
  Sys.rmdir dir

let test_table_to_json () =
  let t = Table.create ~headers:[ "k"; "v" ] in
  Table.add_row t [ "a\"b"; "line1\nline2" ];
  Table.add_sep t;
  Table.add_row t [ "x"; "y" ];
  let j = Table.to_json t in
  Alcotest.(check bool) "escaped quote" true (Thelp.contains j "a\\\"b");
  Alcotest.(check bool) "escaped newline" true (Thelp.contains j "\\n");
  Alcotest.(check bool) "array of two objects" true
    (Thelp.contains j "[{" && Thelp.contains j "},{")

let test_experiments_export_json () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "hnlpu_json_test" in
  let paths = Hnlpu.Experiments.export_json ~dir in
  Alcotest.(check int) "nine files" 9 (List.length paths);
  List.iter
    (fun p ->
      let ic = open_in p in
      let first = input_char ic in
      close_in ic;
      Alcotest.(check char) "json array" '[' first)
    paths;
  List.iter Sys.remove paths;
  Sys.rmdir dir

let test_calibration_registry () =
  (* Single-digit knob count, live values in sync with the code. *)
  Alcotest.(check bool) "few knobs" true (Hnlpu.Calibration.count () < 10);
  let get name =
    (List.find (fun e -> e.Hnlpu.Calibration.constant = name) (Hnlpu.Calibration.all ()))
      .Hnlpu.Calibration.value
  in
  Alcotest.(check (float 0.0)) "contention live" Hnlpu.Perf.link_contention_factor
    (get "Perf.link_contention_factor");
  Alcotest.(check (float 0.0)) "ports live"
    (float_of_int Hnlpu.Census.popcount_port_transistors)
    (get "Census.popcount_port_transistors");
  Alcotest.(check bool) "renders" true
    (Thelp.contains (Table.render (Hnlpu.Calibration.to_table ())) "Anchor")

(* --- Figure charts ---------------------------------------------------------- *)

let test_figure_charts_render () =
  let reports = Hnlpu.Experiments.neuron_reports () in
  let f12 = Hnlpu.Experiments.figure12_chart reports in
  let f13 = Hnlpu.Experiments.figure13_chart reports in
  let f14 = Hnlpu.Experiments.figure14_chart () in
  Alcotest.(check bool) "figure 12 mentions all designs" true
    (Thelp.contains f12 "Metal-Embedding" && Thelp.contains f12 "Cell-Embedding");
  Alcotest.(check bool) "figure 13 log bars" true (Thelp.contains f13 "MAC array");
  Alcotest.(check bool) "figure 14 stacked rows" true
    (Thelp.contains f14 "512K" && Thelp.contains f14 "legend")

let () =
  Alcotest.run "hnlpu_infra"
    [
      ( "chart",
        [
          Alcotest.test_case "bar" `Quick test_bar_renders;
          Alcotest.test_case "log scale" `Quick test_bar_log_scale;
          Alcotest.test_case "stacked width" `Quick test_stacked_width_exact;
          Alcotest.test_case "stacked validation" `Quick test_stacked_validation;
          Alcotest.test_case "sparkline" `Quick test_sparkline;
        ] );
      ( "csv",
        [
          Alcotest.test_case "escaping" `Quick test_csv_roundtrip_structure;
          Alcotest.test_case "experiments export" `Quick test_experiments_export_csv;
        ] );
      ( "json-calibration",
        [
          Alcotest.test_case "to_json escaping" `Quick test_table_to_json;
          Alcotest.test_case "export json" `Quick test_experiments_export_json;
          Alcotest.test_case "calibration registry" `Quick test_calibration_registry;
        ] );
      ( "figure-charts",
        [ Alcotest.test_case "render" `Quick test_figure_charts_render ] );
    ]
