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

let test_rng_gaussian_moments () =
  let r = Rng.create 3 in
  let s = Stats.create () in
  for _ = 1 to 50_000 do
    Stats.add s (Rng.gaussian r)
  done;
  Alcotest.(check bool) "mean near 0" true (Float.abs (Stats.mean s) < 0.02);
  Alcotest.(check bool) "stddev near 1" true (Float.abs (Stats.stddev s -. 1.0) < 0.02)

let test_rng_exponential_mean () =
  let r = Rng.create 4 in
  let s = Stats.create () in
  for _ = 1 to 50_000 do
    Stats.add s (Rng.exponential r 2.0)
  done;
  Alcotest.(check bool) "mean near 1/rate" true (Float.abs (Stats.mean s -. 0.5) < 0.02)

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

let test_rng_shuffle_permutation () =
  let r = Rng.create 5 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* --- Stats ----------------------------------------------------------- *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Stats.count s);
  check_float "mean" 2.5 (Stats.mean s);
  check_float "variance" (5.0 /. 3.0) (Stats.variance s);
  check_float "min" 1.0 (Stats.min s);
  check_float "max" 4.0 (Stats.max s);
  check_float "total" 10.0 (Stats.total s)

let test_stats_percentile () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  check_float "median" 3.0 (Stats.percentile xs 0.5);
  check_float "p0" 1.0 (Stats.percentile xs 0.0);
  check_float "p100" 5.0 (Stats.percentile xs 1.0);
  check_float "p25" 2.0 (Stats.percentile xs 0.25)

let test_stats_histogram () =
  let xs = [| 0.0; 0.5; 1.0; 1.5; 2.0 |] in
  let h = Stats.histogram xs ~bins:2 in
  Alcotest.(check int) "bins" 2 (Array.length h);
  Alcotest.(check int) "total count" 5 (Array.fold_left (fun a (_, c) -> a + c) 0 h)

let test_stats_empty () =
  Alcotest.(check bool) "percentile of empty is nan" true
    (Float.is_nan (Stats.percentile [||] 0.5));
  Alcotest.(check int) "histogram of empty is empty" 0
    (Array.length (Stats.histogram [||] ~bins:4))

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

let () =
  Alcotest.run "hnlpu_util"
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
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "percentile domain" `Quick test_stats_percentile_domain;
          Alcotest.test_case "percentile edges" `Quick test_stats_percentile_edges;
        ] );
      ( "units",
        [
          Alcotest.test_case "si" `Quick test_units_si;
          Alcotest.test_case "dollars" `Quick test_units_dollars;
          Alcotest.test_case "round_sig" `Quick test_units_round_sig;
          Alcotest.test_case "dollars_m" `Quick test_units_dollars_m;
          Alcotest.test_case "group thousands" `Quick test_units_group_thousands;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity;
        ] );
      ("approx", [ Alcotest.test_case "helpers" `Quick test_approx ]);
    ]
