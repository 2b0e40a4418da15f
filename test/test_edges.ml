(* Edge-case hardening across the utility and substrate layers: inputs at
   boundaries, rejection paths, and formatting corners not covered by the
   feature suites. *)

open Hnlpu_util

let raises f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

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

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.mean s));
  Alcotest.(check bool) "variance nan" true (Float.is_nan (Stats.variance s))

let test_stats_single () =
  let s = Stats.create () in
  Stats.add s 5.0;
  Alcotest.(check (float 0.0)) "mean" 5.0 (Stats.mean s);
  Alcotest.(check bool) "variance undefined" true (Float.is_nan (Stats.variance s))

let test_stats_percentile_validation () =
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Stats.percentile [||] 0.5));
  Alcotest.(check bool) "p>1" true (raises (fun () -> Stats.percentile [| 1.0 |] 1.5))

(* --- Rng edges --------------------------------------------------------------- *)

let test_rng_choose () =
  let r = Rng.create 1 in
  Alcotest.(check int) "singleton" 7 (Rng.choose r [| 7 |]);
  Alcotest.(check bool) "empty raises" true (raises (fun () -> Rng.choose r [||]))

let test_rng_int_validation () =
  let r = Rng.create 2 in
  Alcotest.(check bool) "zero bound" true (raises (fun () -> Rng.int r 0))

let test_rng_copy_diverges_from_split () =
  let a = Rng.create 3 in
  let b = Rng.copy a in
  Alcotest.(check int64) "copies replay" (Rng.next_int64 a) (Rng.next_int64 b)

(* --- Chart edges ---------------------------------------------------------------- *)

let test_chart_empty_rejected () =
  Alcotest.(check bool) "bar" true (raises (fun () -> Chart.bar []));
  Alcotest.(check bool) "stacked" true
    (raises (fun () -> Chart.stacked ~legend:[ "a" ] []))

let test_chart_single_value () =
  let s = Chart.bar [ ("only", 5.0) ] in
  Alcotest.(check bool) "renders" true (Thelp.contains s "only")

let test_chart_sparkline_flat () =
  (* All-equal input must not divide by zero. *)
  let s = Chart.sparkline [| 2.0; 2.0; 2.0 |] in
  Alcotest.(check int) "length" 3 (String.length s)

(* --- Fp4 / Gemv boundary widths --------------------------------------------------- *)

let test_gemv_min_width () =
  let open Hnlpu_neuron in
  let rng = Rng.create 5 in
  let g = Gemv.random rng ~in_features:4 ~out_features:1 ~act_bits:2 in
  let x = Gemv.random_activations rng g in
  let me, _ = Metal_embedding.run (Metal_embedding.make ~slack:16.0 g) x in
  Alcotest.(check (array int)) "2-bit activations" (Gemv.reference g x) me

let test_bitserial_width_bounds () =
  let open Hnlpu_fp4 in
  Alcotest.(check bool) "bits=1 rejected" true
    (raises (fun () -> Bitserial.planes ~bits:1 [| 0 |]));
  Alcotest.(check bool) "bits=33 rejected" true
    (raises (fun () -> Bitserial.planes ~bits:33 [| 0 |]))

let test_csa_width_bounds () =
  let open Hnlpu_fp4 in
  Alcotest.(check bool) "width 0 rejected" true
    (raises (fun () -> Csa.reduce ~width:0 [| 1 |]));
  Alcotest.(check bool) "operand too wide rejected" true
    (raises (fun () -> Csa.reduce ~width:4 [| 16 |]))

(* Every machine rejects a short, a long and an out-of-range activation
   vector with a message naming it — never an index error. *)
let bad_activations_gemv =
  Hnlpu_neuron.Gemv.random (Rng.create 8) ~in_features:8 ~out_features:2 ~act_bits:8

let test_rejects_bad_activations name run () =
  List.iter
    (fun (case, x) ->
      let msg =
        match run x with
        | _ -> "accepted"
        | exception Invalid_argument msg -> msg
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s %s: %S names the machine" name case msg)
        true
        (String.starts_with ~prefix:(name ^ ": ") msg))
    [ ("short", Array.make 5 0); ("long", Array.make 9 0); ("out of range", [| 0; 0; 1000; 0; 0; 0; 0; 0 |]) ]

let machine_rejection_cases =
  let open Hnlpu_neuron in
  let g = bad_activations_gemv in
  List.map
    (fun (name, run) ->
      Alcotest.test_case (name ^ " rejects bad activations") `Quick
        (test_rejects_bad_activations name run))
    [
      ("Metal_embedding.run", fun x -> fst (Metal_embedding.run (Metal_embedding.make ~slack:16.0 g) x));
      ("Cell_embedding.run", fun x -> fst (Cell_embedding.run (Cell_embedding.make g) x));
      ("Mac_array.run", fun x -> fst (Mac_array.run (Mac_array.make g) x));
      ("Me_rtl.run", fun x -> snd (Me_rtl.run (Me_rtl.make ~slack:16.0 g) x));
    ]

(* --- Config/scheduler misc ---------------------------------------------------------- *)

let test_scheduler_requests_validation () =
  let open Hnlpu_system in
  Alcotest.(check bool) "n=0" true
    (raises (fun () ->
         Scheduler.requests ~n:0 (Arrivals.create ~seed:0 (Arrivals.chat ~rate_per_s:1.0))))

let test_perf_zero_context () =
  (* Decoding the very first token: no cached positions, attention free. *)
  let b =
    Hnlpu_system.Perf.token_breakdown Hnlpu_model.Config.gpt_oss_120b ~context:0
  in
  Alcotest.(check (float 0.0)) "no attention" 0.0 b.Hnlpu_system.Perf.attention_s;
  Alcotest.(check bool) "comm still paid" true (b.Hnlpu_system.Perf.comm_s > 0.0)

let test_topology_validation () =
  let open Hnlpu_noc in
  Alcotest.(check bool) "bad chip" true (raises (fun () -> Topology.row_of 16));
  Alcotest.(check bool) "bad group" true (raises (fun () -> Topology.col_group 4))

let test_table_csv_empty_rows () =
  let t = Table.create ~headers:[ "a" ] in
  let csv = Table.to_csv t in
  Alcotest.(check string) "header only" "a\n" csv

let () =
  Alcotest.run "hnlpu_edges"
    [
      ( "units",
        [
          Alcotest.test_case "time scales" `Quick test_units_time_scales;
          Alcotest.test_case "zero/negative" `Quick test_units_zero_and_negative;
          Alcotest.test_case "extremes" `Quick test_units_extremes_fall_back;
          Alcotest.test_case "percent digits" `Quick test_units_percent_digits;
        ] );
      ( "stats",
        [
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "single" `Quick test_stats_single;
          Alcotest.test_case "percentile validation" `Quick test_stats_percentile_validation;
        ] );
      ( "rng",
        [
          Alcotest.test_case "choose" `Quick test_rng_choose;
          Alcotest.test_case "int validation" `Quick test_rng_int_validation;
          Alcotest.test_case "copy replays" `Quick test_rng_copy_diverges_from_split;
        ] );
      ( "chart",
        [
          Alcotest.test_case "empty rejected" `Quick test_chart_empty_rejected;
          Alcotest.test_case "single value" `Quick test_chart_single_value;
          Alcotest.test_case "flat sparkline" `Quick test_chart_sparkline_flat;
        ] );
      ( "substrate-bounds",
        [
          Alcotest.test_case "min-width gemv" `Quick test_gemv_min_width;
          Alcotest.test_case "bitserial bounds" `Quick test_bitserial_width_bounds;
          Alcotest.test_case "csa bounds" `Quick test_csa_width_bounds;
        ]
        @ machine_rejection_cases );
      ( "misc",
        [
          Alcotest.test_case "workload validation" `Quick test_scheduler_requests_validation;
          Alcotest.test_case "zero context" `Quick test_perf_zero_context;
          Alcotest.test_case "topology validation" `Quick test_topology_validation;
          Alcotest.test_case "csv empty" `Quick test_table_csv_empty_rows;
        ] );
    ]
