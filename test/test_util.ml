open Hnlpu_util

let check_float = Alcotest.(check (float 1e-9))

(* --- Rng ------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xa = Rng.next_int64 a and xb = Rng.next_int64 b in
  Alcotest.(check bool) "streams differ" true (xa <> xb)

let test_rng_int_bounds () =
  let r = Rng.create 1 in
  for _ = 1 to 10_000 do
    let x = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_rng_float_bounds () =
  let r = Rng.create 2 in
  for _ = 1 to 10_000 do
    let x = Rng.float r 3.0 in
    Alcotest.(check bool) "in range" true (x >= 0.0 && x < 3.0)
  done

let mean xs = Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

(* Unbiased sample standard deviation. *)
let stddev xs =
  let m = mean xs in
  let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
  sqrt (ss /. float_of_int (Array.length xs - 1))

let test_rng_gaussian_moments () =
  let r = Rng.create 3 in
  let xs = Array.init 50_000 (fun _ -> Rng.gaussian r) in
  Alcotest.(check bool) "mean near 0" true (Float.abs (mean xs) < 0.02);
  Alcotest.(check bool) "stddev near 1" true (Float.abs (stddev xs -. 1.0) < 0.02)

let test_rng_exponential_mean () =
  let r = Rng.create 4 in
  let xs = Array.init 50_000 (fun _ -> Rng.exponential r 2.0) in
  Alcotest.(check bool) "mean near 1/rate" true (Float.abs (mean xs -. 0.5) < 0.02)

let test_rng_exponential_rejects_bad_rate () =
  (* NaN and infinity fail the guard like zero and negatives do: a NaN
     rate would otherwise return NaN variates. *)
  List.iter
    (fun rate ->
      Alcotest.check_raises
        (Printf.sprintf "rate %h" rate)
        (Invalid_argument "Rng.exponential: rate must be positive and finite")
        (fun () -> ignore (Rng.exponential (Rng.create 4) rate)))
    [ 0.0; -0.0; -1.0; nan; infinity; neg_infinity ]

(* --- Stats ----------------------------------------------------------- *)

let test_stats_percentile () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  check_float "median" 3.0 (Stats.percentile xs 0.5);
  check_float "p0" 1.0 (Stats.percentile xs 0.0);
  check_float "p100" 5.0 (Stats.percentile xs 1.0);
  check_float "p25" 2.0 (Stats.percentile xs 0.25)

let test_stats_empty () =
  Alcotest.(check bool) "percentile of empty is nan" true
    (Float.is_nan (Stats.percentile [||] 0.5))

let test_stats_percentile_domain () =
  let raises p =
    match Stats.percentile [| 1.0 |] p with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "p < 0 raises" true (raises (-0.1));
  Alcotest.(check bool) "p > 1 raises" true (raises 1.5);
  Alcotest.(check bool) "nan p raises" true (raises nan);
  (* The domain check fires even when there are no samples. *)
  Alcotest.(check bool) "empty + bad p still raises" true
    (match Stats.percentile [||] 2.0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_stats_percentile_edges () =
  (* A singleton returns its element for every p. *)
  List.iter
    (fun p ->
      check_float
        (Printf.sprintf "singleton at p=%g" p)
        42.0
        (Stats.percentile [| 42.0 |] p))
    [ 0.0; 0.25; 0.5; 0.95; 1.0 ];
  (* nan samples poison rank interpolation silently, so they are
     rejected up front. *)
  let raises xs =
    match Stats.percentile xs 0.5 with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "nan-only sample raises" true (raises [| nan |]);
  Alcotest.(check bool) "nan among samples raises" true
    (raises [| 1.0; nan; 3.0 |]);
  Alcotest.(check bool) "infinities are still accepted" true
    (not (raises [| 1.0; infinity |]))

(* --- Units ----------------------------------------------------------- *)

let test_units_si () =
  Alcotest.(check string) "giga" "2.50G" (Units.si 2.5e9);
  Alcotest.(check string) "micro" "4.00u" (Units.si 4.0e-6);
  Alcotest.(check string) "unit" "36.00" (Units.si 36.0)

let test_units_dollars () =
  Alcotest.(check string) "millions" "$ 27.69M" (Units.dollars 27.69e6);
  Alcotest.(check string) "billions" "$ 6.00B" (Units.dollars 6.0e9);
  Alcotest.(check string) "plain" "$ 629" (Units.dollars 629.0)

let test_units_round_sig () =
  check_float "4 sig" 59.46 (Units.round_sig 4 59.4622);
  check_float "4 sig big" 123.5 (Units.round_sig 4 123.456);
  check_float "zero" 0.0 (Units.round_sig 4 0.0)

let test_units_dollars_m () =
  Alcotest.(check string) "paper style" "59.46M" (Units.dollars_m 59.4622e6);
  Alcotest.(check string) "paper style 2" "123.5M" (Units.dollars_m 123.46e6)

let test_units_group_thousands () =
  Alcotest.(check string) "group" "249,960" (Units.group_thousands 249960);
  Alcotest.(check string) "small" "45" (Units.group_thousands 45);
  Alcotest.(check string) "negative" "-1,234" (Units.group_thousands (-1234))

(* --- Table ----------------------------------------------------------- *)

let test_table_render () =
  let t = Table.create ~headers:[ "a"; "b" ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_sep t;
  Table.add_row t [ "y"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains row" true
    (String.length s > 0
    && Thelp.contains s "22"
    && Thelp.contains s "x")

let test_table_arity () =
  let t = Table.create ~headers:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: expected 2 cells, got 1")
    (fun () -> Table.add_row t [ "x" ])

(* --- Approx ---------------------------------------------------------- *)

let test_approx () =
  Alcotest.(check bool) "close rel" true (Thelp.close ~rel:0.01 100.0 100.5);
  Alcotest.(check bool) "not close" false (Thelp.close ~rel:0.001 100.0 100.5);
  Alcotest.(check bool) "within pct" true
    (Thelp.within_pct 1.0 ~expected:100.0 ~actual:100.9);
  check_float "rel error" 0.01 (Thelp.rel_error 100.0 101.0)

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
    Chart.stacked ~legend:[ "a"; "b"; "c" ]
      [ ("r1", [ 1.0; 2.0; 1.0 ]); ("r2", [ 0.0; 1.0; 0.0 ]) ]
  in
  (* Every bar between the pipes must be exactly 60 chars. *)
  String.split_on_char '\n' s
  |> List.iter (fun line ->
         match String.index_opt line '|' with
         | Some i when String.length line > i + 1 && line.[String.length line - 1] = '|' ->
           Alcotest.(check int) "bar width" 60 (String.length line - i - 2)
         | _ -> ())

let test_stacked_validation () =
  Alcotest.(check bool) "arity mismatch" true
    (try
       ignore (Chart.stacked ~legend:[ "a" ] [ ("r", [ 1.0; 2.0 ]) ]);
       false
     with Invalid_argument _ -> true)

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

(* --- Units formatting ---------------------------------------------------- *)

let test_units_time_scales () =
  Alcotest.(check string) "us" "4.00us" (Units.seconds 4.0e-6);
  Alcotest.(check string) "ms" "1.50ms" (Units.seconds 1.5e-3);
  Alcotest.(check string) "ns" "90.00ns" (Units.seconds 90.0e-9)

let test_units_zero_and_negative () =
  Alcotest.(check string) "zero" "0.00" (Units.si 0.0);
  Alcotest.(check bool) "negative carries sign" true
    (String.length (Units.si (-2.5e6)) > 0 && (Units.si (-2.5e6)).[0] = '-')

let test_units_extremes_fall_back () =
  (* Outside the prefix table: scientific notation, no exception. *)
  Alcotest.(check bool) "huge" true (String.length (Units.si 1e21) > 0);
  Alcotest.(check bool) "tiny" true (String.length (Units.si 1e-19) > 0)

let test_units_percent_digits () =
  Alcotest.(check string) "two digits" "12.35%" (Units.percent ~digits:2 0.123456)

(* --- Stats edges ----------------------------------------------------------- *)

let test_stats_percentile_validation () =
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Stats.percentile [||] 0.5));
  Alcotest.(check bool) "p>1" true (Thelp.raises (fun () -> Stats.percentile [| 1.0 |] 1.5))

(* --- Rng edges --------------------------------------------------------------- *)

let test_rng_int_validation () =
  let r = Rng.create 2 in
  Alcotest.(check bool) "zero bound" true (Thelp.raises (fun () -> Rng.int r 0))

let test_rng_copy_diverges_from_split () =
  let a = Rng.create 3 in
  let b = Rng.copy a in
  Alcotest.(check int64) "copies replay" (Rng.next_int64 a) (Rng.next_int64 b)

(* --- Chart edges ---------------------------------------------------------------- *)

let test_chart_empty_rejected () =
  Alcotest.(check bool) "bar" true (Thelp.raises (fun () -> Chart.bar []));
  Alcotest.(check bool) "stacked" true
    (Thelp.raises (fun () -> Chart.stacked ~legend:[ "a" ] []))

let test_chart_single_value () =
  let s = Chart.bar [ ("only", 5.0) ] in
  Alcotest.(check bool) "renders" true (Thelp.contains s "only")

let test_table_csv_empty_rows () =
  let t = Table.create ~headers:[ "a" ] in
  let csv = Table.to_csv t in
  Alcotest.(check string) "header only" "a\n" csv

let suites =
  [
    ( "rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
        Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
        Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
        Alcotest.test_case "exponential rejects bad rate" `Quick
          test_rng_exponential_rejects_bad_rate;
        Alcotest.test_case "int validation" `Quick test_rng_int_validation;
        Alcotest.test_case "copy replays" `Quick test_rng_copy_diverges_from_split;
      ] );
    ( "stats",
      [
        Alcotest.test_case "percentile" `Quick test_stats_percentile;
        Alcotest.test_case "empty" `Quick test_stats_empty;
        Alcotest.test_case "percentile domain" `Quick test_stats_percentile_domain;
        Alcotest.test_case "percentile edges" `Quick test_stats_percentile_edges;
        Alcotest.test_case "percentile validation" `Quick test_stats_percentile_validation;
      ] );
    ( "units",
      [
        Alcotest.test_case "si" `Quick test_units_si;
        Alcotest.test_case "dollars" `Quick test_units_dollars;
        Alcotest.test_case "round_sig" `Quick test_units_round_sig;
        Alcotest.test_case "dollars_m" `Quick test_units_dollars_m;
        Alcotest.test_case "group thousands" `Quick test_units_group_thousands;
        Alcotest.test_case "time scales" `Quick test_units_time_scales;
        Alcotest.test_case "zero/negative" `Quick test_units_zero_and_negative;
        Alcotest.test_case "extremes" `Quick test_units_extremes_fall_back;
        Alcotest.test_case "percent digits" `Quick test_units_percent_digits;
      ] );
    ( "table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "arity" `Quick test_table_arity;
      ] );
    ("approx", [ Alcotest.test_case "helpers" `Quick test_approx ]);
    ( "chart",
      [
        Alcotest.test_case "empty rejected" `Quick test_chart_empty_rejected;
        Alcotest.test_case "single value" `Quick test_chart_single_value;
        Alcotest.test_case "bar" `Quick test_bar_renders;
        Alcotest.test_case "log scale" `Quick test_bar_log_scale;
        Alcotest.test_case "stacked width" `Quick test_stacked_width_exact;
        Alcotest.test_case "stacked validation" `Quick test_stacked_validation;
      ] );
    ("csv", [ Alcotest.test_case "escaping" `Quick test_csv_roundtrip_structure ]);
    ("json-calibration", [ Alcotest.test_case "to_json escaping" `Quick test_table_to_json ]);
    ("misc", [ Alcotest.test_case "csv empty" `Quick test_table_csv_empty_rows ]);
  ]
