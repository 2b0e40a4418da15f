(* Tests for the second wave of system substrates: explicit collective
   schedules, 2.5D packaging / Known-Good-Module, quantization fidelity,
   and SLO capacity planning. *)

open Hnlpu
open Hnlpu_noc

let config = Config.gpt_oss_120b

(* --- Schedules ------------------------------------------------------------ *)

let col0 = Topology.col_group 0

let test_schedule_all_reduce_shape () =
  let plan = Schedule.all_reduce ~group:col0 ~bytes:1024 in
  Alcotest.(check int) "two steps" 2 (List.length plan);
  Alcotest.(check int) "six transfers" 6 (Schedule.transfer_count plan);
  Alcotest.(check int) "valid on fabric" 0 (List.length (Schedule.validate plan))

let test_schedule_all_gather_ring () =
  let plan = Schedule.all_gather ~group:(Topology.row_group 1) ~shard_bytes:256 in
  Alcotest.(check int) "k-1 steps" 3 (List.length plan);
  Alcotest.(check int) "k transfers per step" 4 (List.length (List.hd plan));
  Alcotest.(check int) "valid" 0 (List.length (Schedule.validate plan))

let test_schedule_all_chip () =
  let plan = Schedule.all_chip_all_reduce ~bytes:5760 in
  Alcotest.(check int) "four steps" 4 (List.length plan);
  (* 4 cols x 3 + 4 cols x 3 + rows likewise = 48 transfers. *)
  Alcotest.(check int) "48 transfers" 48 (Schedule.transfer_count plan);
  Alcotest.(check int) "valid" 0 (List.length (Schedule.validate plan))

let test_schedule_rejects_nonlinks () =
  (* A hand-built diagonal transfer must be flagged. *)
  let bogus = [ [ { Schedule.src = 0; dst = 5; bytes = 8 } ] ] in
  Alcotest.(check bool) "diagonal flagged" true
    (List.exists
       (function Schedule.Not_a_link _ -> true | _ -> false)
       (Schedule.validate bogus))

let test_schedule_makespan_model () =
  let plan = Schedule.all_reduce ~group:col0 ~bytes:2048 in
  let expected = 2.0 *. Link.transfer_time_s Link.cxl3 ~bytes:2048 in
  Alcotest.(check bool) "2 steps of one transfer time" true
    (Thelp.close ~rel:1e-9 expected (Schedule.makespan plan))

let test_schedule_executes_correctly () =
  let rng = Rng.create 3 in
  let vals = List.map (fun c -> (c, Vec.gaussian rng 5)) col0 in
  let via_plan = Schedule.run_all_reduce ~group:col0 vals in
  let via_math = Collective.all_reduce vals in
  List.iter2
    (fun (c1, a) (c2, b) ->
      Alcotest.(check int) "chip order" c1 c2;
      Alcotest.(check bool) "same sum" true (Vec.max_abs_diff a b < 1e-9))
    via_plan via_math

let test_layer_program_matches_plans () =
  (* Every step charge is the length of the entry's plan, with one named
     exception: the column all-gather is charged 1 step while the ring plan
     takes 3 (ROADMAP, "One per-layer collective program").  Traffic's link
     bytes are the plan's bytes. *)
  let traffic = Traffic.analyze config in
  List.iter2
    (fun (e : Layer_program.entry) (l : Traffic.ledger_entry) ->
      let plan = Layer_program.plan config e in
      let label = e.Layer_program.label in
      (match e.Layer_program.kind with
      | Layer_program.All_gather ->
        Alcotest.(check int) (label ^ ": ring plan") 3 (List.length plan);
        Alcotest.(check int) (label ^ ": charged") 1 e.Layer_program.steps
      | _ ->
        Alcotest.(check int) (label ^ ": steps") (List.length plan)
          e.Layer_program.steps);
      Alcotest.(check string) "ledger label" label l.Traffic.collective;
      Alcotest.(check int) (label ^ ": link bytes") (Schedule.total_bytes plan)
        l.Traffic.link_bytes)
    Layer_program.program traffic.Traffic.entries;
  Alcotest.(check int) "15 steps per layer" 15
    (List.fold_left
       (fun acc (e : Layer_program.entry) -> acc + e.Layer_program.steps)
       0 Layer_program.program)

let prop_schedules_valid =
  QCheck.Test.make ~name:"all generated schedules are fabric-valid" ~count:50
    QCheck.(pair (int_range 0 3) (int_range 1 10000))
    (fun (g, bytes) ->
      let col = Topology.col_group g and row = Topology.row_group g in
      List.for_all
        (fun plan -> Schedule.validate plan = [])
        [
          Schedule.all_reduce ~group:col ~bytes;
          Schedule.all_gather ~group:row ~shard_bytes:bytes;
          Schedule.reduce ~root:(List.hd col) ~group:col ~bytes;
          Schedule.broadcast ~root:(List.hd row) ~group:row ~bytes;
          Schedule.scatter ~root:(List.hd row) ~group:row ~shard_bytes:bytes;
          Schedule.all_chip_all_reduce ~bytes;
        ])

let prop_schedule_allreduce_correct =
  QCheck.Test.make ~name:"scheduled all-reduce sums correctly" ~count:50
    QCheck.(pair (int_range 0 3) (int_range 0 100000))
    (fun (col, seed) ->
      let rng = Rng.create seed in
      let group = Topology.col_group col in
      let vals = List.map (fun c -> (c, Vec.gaussian rng 4)) group in
      let a = Schedule.run_all_reduce ~group vals in
      let b = Collective.all_reduce vals in
      List.for_all2 (fun (_, x) (_, y) -> Vec.max_abs_diff x y < 1e-9) a b)

(* --- Package / KGM ------------------------------------------------------------ *)

let test_package_interposer_sane () =
  let u = Package.interposer_utilization Package.hnlpu in
  Alcotest.(check bool) (Printf.sprintf "utilization %.2f" u) true (u > 0.5 && u < 1.0)

let test_kgm_decouples_yield () =
  (* §4.2: "decoupling the final system's assembly yield from the
     challenging manufacturing yield of the large monolithic dies". *)
  let die_yield = 0.43 in
  let kgm = Package.system_yield_kgm Package.hnlpu ~modules:16 in
  let untested = Package.system_yield_untested Package.hnlpu ~die_yield ~modules:16 in
  Alcotest.(check bool) (Printf.sprintf "KGM %.3f healthy" kgm) true (kgm > 0.95);
  Alcotest.(check bool) (Printf.sprintf "untested %.2e hopeless" untested) true
    (untested < 1e-5);
  Alcotest.(check bool) "advantage enormous" true
    (Package.kgm_advantage Package.hnlpu ~die_yield ~modules:16 > 1e4)

let test_module_cost_matches_table5 () =
  (* Die 629 + HBM 1920 + assembly 111 = 2660 (lo); 629+3840+185 (hi). *)
  let lo = Package.module_cost_usd ~bound:`Lo Package.hnlpu in
  let hi = Package.module_cost_usd ~bound:`Hi Package.hnlpu in
  Alcotest.(check bool) (Printf.sprintf "lo %.0f" lo) true
    (Thelp.within_pct 1.0 ~expected:2660.0 ~actual:lo);
  Alcotest.(check bool) (Printf.sprintf "hi %.0f" hi) true
    (Thelp.within_pct 1.0 ~expected:4654.0 ~actual:hi)

(* --- Quantization fidelity ------------------------------------------------------ *)

let test_quant_eval_fidelity () =
  let r = Quant_eval.evaluate ~sequences:6 ~length:10 (Rng.create 99) Config.tiny in
  Alcotest.(check bool)
    (Printf.sprintf "ppl ratio %.3f within 25%%" r.Quant_eval.ppl_ratio)
    true
    (r.Quant_eval.ppl_ratio > 0.8 && r.Quant_eval.ppl_ratio < 1.25);
  Alcotest.(check bool)
    (Printf.sprintf "hidden cosine %.3f" r.Quant_eval.hidden_cosine)
    true
    (r.Quant_eval.hidden_cosine > 0.95);
  Alcotest.(check bool)
    (Printf.sprintf "top-1 agreement %.2f" r.Quant_eval.top1_agreement)
    true
    (r.Quant_eval.top1_agreement > 0.5)

let test_quant_eval_counts () =
  let r = Quant_eval.evaluate ~sequences:3 ~length:5 (Rng.create 100) Config.tiny in
  Alcotest.(check int) "scored = seqs x (len-1)" 12 r.Quant_eval.tokens_scored

let test_weights_quantize_idempotent () =
  let w = Weights.random ~quantize_fp4:false (Rng.create 101) Config.tiny in
  let q1 = Weights.quantize w in
  let q2 = Weights.quantize q1 in
  let diff =
    Mat.max_abs_diff q1.Weights.layers.(0).Weights.wq q2.Weights.layers.(0).Weights.wq
  in
  Alcotest.(check (float 1e-12)) "second pass is identity" 0.0 diff

(* --- SLO ------------------------------------------------------------------------- *)

let test_slo_low_rate_meets () =
  let e = Slo.evaluate config Slo.interactive ~rate_per_s:5.0 in
  Alcotest.(check bool)
    (Printf.sprintf "TTFT p95 %.3fs" e.Slo.ttft_p95)
    true e.Slo.meets

let test_slo_insane_rate_fails () =
  let e =
    Slo.evaluate ~requests:300 config
      { Slo.ttft_p95_s = 0.005; e2e_p95_s = 0.05 }
      ~rate_per_s:5000.0
  in
  Alcotest.(check bool) "unmeetable objectives fail" false e.Slo.meets

let test_slo_max_rate_bracketing () =
  let obj = Slo.interactive in
  let r = Slo.max_rate ~requests:120 config obj in
  Alcotest.(check bool) (Printf.sprintf "max rate %.0f/s positive" r) true (r > 10.0);
  (* The found rate must actually meet; 4x it must not (or be past the
     throughput ceiling anyway). *)
  let at = Slo.evaluate ~requests:120 config obj ~rate_per_s:r in
  Alcotest.(check bool) "feasible at the answer" true at.Slo.meets

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "hnlpu_system2"
    [
      ( "schedules",
        [
          Alcotest.test_case "all-reduce shape" `Quick test_schedule_all_reduce_shape;
          Alcotest.test_case "all-gather ring" `Quick test_schedule_all_gather_ring;
          Alcotest.test_case "all-chip" `Quick test_schedule_all_chip;
          Alcotest.test_case "rejects non-links" `Quick test_schedule_rejects_nonlinks;
          Alcotest.test_case "makespan" `Quick test_schedule_makespan_model;
          Alcotest.test_case "layer program = plans" `Quick
            test_layer_program_matches_plans;
          Alcotest.test_case "executes correctly" `Quick test_schedule_executes_correctly;
        ] );
      qsuite "schedule properties" [ prop_schedules_valid; prop_schedule_allreduce_correct ];
      ( "package",
        [
          Alcotest.test_case "interposer" `Quick test_package_interposer_sane;
          Alcotest.test_case "KGM decouples yield" `Quick test_kgm_decouples_yield;
          Alcotest.test_case "module cost" `Quick test_module_cost_matches_table5;
        ] );
      ( "quantization",
        [
          Alcotest.test_case "fidelity" `Slow test_quant_eval_fidelity;
          Alcotest.test_case "counts" `Quick test_quant_eval_counts;
          Alcotest.test_case "idempotent" `Quick test_weights_quantize_idempotent;
        ] );
      ( "slo",
        [
          Alcotest.test_case "low rate meets" `Quick test_slo_low_rate_meets;
          Alcotest.test_case "insane rate fails" `Quick test_slo_insane_rate_fails;
          Alcotest.test_case "max rate" `Slow test_slo_max_rate_bracketing;
        ] );
    ]
