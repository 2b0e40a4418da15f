open Hnlpu
open Hnlpu_chip
open Hnlpu_util

let config = Hnlpu_model.Config.gpt_oss_120b

(* --- Attention buffer ---------------------------------------------------- *)

let test_buffer_capacity () =
  (* §4.3: "320 MB" = 20,000 banks x 16 KB. *)
  Alcotest.(check int) "bank arithmetic" (20_000 * 16 * 1024)
    (Attention_buffer.capacity_bytes Attention_buffer.hnlpu);
  Alcotest.(check bool) "~320 MB" true
    (Thelp.within_pct 3.0 ~expected:320.0e6
       ~actual:(float_of_int (Attention_buffer.capacity_bytes Attention_buffer.hnlpu)))

let test_buffer_bandwidth () =
  (* §7.1: sustains 80 TB/s. *)
  let bw = Attention_buffer.bandwidth_bytes_per_s Attention_buffer.hnlpu in
  Alcotest.(check bool) (Printf.sprintf "%.1f TB/s" (bw /. 1e12)) true
    (Thelp.within_pct 1.0 ~expected:80.0e12 ~actual:bw)

let test_buffer_area () =
  (* Table 1: 136.11 mm². *)
  let a = Attention_buffer.area_mm2 Attention_buffer.hnlpu in
  Alcotest.(check bool) (Printf.sprintf "area %.1f" a) true
    (Thelp.within_pct 3.0 ~expected:136.11 ~actual:a)

let test_buffer_kv_accounting () =
  (* Per chip per position: 2 KV heads x 64 x FP16 x (K and V) x 36 layers. *)
  Alcotest.(check int) "18,432 B/position" 18432
    (Attention_buffer.kv_bytes_per_position_per_chip config)

let test_buffer_onchip_capacity () =
  (* ~70K positions fit on chip; the paper sees no HBM stalls below 256K
     only because prefetch hides the fetches. *)
  let p = Attention_buffer.onchip_positions Attention_buffer.hnlpu config in
  Alcotest.(check bool) (Printf.sprintf "%d positions" p) true
    (p > 65_000 && p < 75_000)

let test_buffer_spill () =
  let none =
    Attention_buffer.spilled_bytes_per_token Attention_buffer.hnlpu config ~context:65536
  in
  Alcotest.(check (float 0.0)) "no spill at 64K" 0.0 none;
  let big =
    Attention_buffer.spilled_bytes_per_token Attention_buffer.hnlpu config ~context:524288
  in
  Alcotest.(check bool) (Printf.sprintf "512K spills %.2f GB" (big /. 1e9)) true
    (big > 1.5e9 && big < 2.5e9)

let test_buffer_spill_boundaries () =
  (* Regression: the spill arithmetic used integer division, silently
     dropping up to rows-1 positions right at the capacity edge. *)
  let rows = Hnlpu_noc.Topology.rows in
  let cap = Attention_buffer.onchip_positions Attention_buffer.hnlpu config in
  let per_pos = Attention_buffer.kv_bytes_per_position_per_chip config in
  let spill context =
    Attention_buffer.spilled_bytes_per_token Attention_buffer.hnlpu config ~context
  in
  Alcotest.(check (float 0.0)) "nothing at capacity" 0.0 (spill cap);
  Alcotest.(check (float 1e-6)) "one position past capacity"
    (float_of_int per_pos /. float_of_int rows)
    (spill (cap + 1));
  Alcotest.(check (float 1e-6)) "rows past capacity = one full position/chip"
    (float_of_int per_pos)
    (spill (cap + rows));
  Alcotest.(check bool) "negative context rejected" true
    (try
       ignore (spill (-1));
       false
     with Invalid_argument _ -> true)

(* --- HBM ----------------------------------------------------------------- *)

let test_hbm_capacity () =
  (* Appendix B: 8 stacks x 24 GB. *)
  Alcotest.(check (float 1.0)) "192 GB" 192.0e9 (Hbm.capacity_bytes Hbm.hnlpu)

let test_hbm_embedding_fits () =
  Alcotest.(check bool) "embedding tables fit" true (Hbm.fits_embedding Hbm.hnlpu config)

let test_hbm_stall_overlap () =
  Alcotest.(check (float 0.0)) "fully hidden" 0.0
    (Hbm.stall_s Hbm.hnlpu ~fetch_s:1.0e-6 ~compute_s:2.0e-6);
  Alcotest.(check (float 1e-18)) "residual" 1.0e-6
    (Hbm.stall_s Hbm.hnlpu ~fetch_s:3.0e-6 ~compute_s:2.0e-6)

(* --- VEX ------------------------------------------------------------------- *)

let test_vex_attention_linear () =
  let c1 = Vex.attention_cycles config ~context:65536 in
  let c2 = Vex.attention_cycles config ~context:131072 in
  Alcotest.(check bool) "linear in context" true
    (Thelp.within_pct 1.0 ~expected:2.0 ~actual:(float_of_int c2 /. float_of_int c1))

let test_vex_attention_zero_context () =
  Alcotest.(check int) "empty context costs nothing" 0
    (Vex.attention_cycles config ~context:0)

let test_vex_nonlinear_positive () =
  Alcotest.(check bool) "nonlinear work" true (Vex.nonlinear_cycles config > 0)

(* --- HN array ---------------------------------------------------------------- *)

let test_hn_weights_per_chip () =
  let w = Hn_array.weights_per_chip config in
  Alcotest.(check bool) (Printf.sprintf "%.2fB weights" (w /. 1e9)) true
    (w > 7.0e9 && w < 7.5e9)

let test_hn_area () =
  (* Table 1: 573.16 mm². *)
  let a = Hn_array.area_mm2 config in
  Alcotest.(check bool) (Printf.sprintf "area %.1f" a) true
    (Thelp.within_pct 2.0 ~expected:573.16 ~actual:a)

let test_hn_power () =
  (* Table 1: 76.92 W. *)
  let p = Hn_array.power_w config in
  Alcotest.(check bool) (Printf.sprintf "power %.1f" p) true
    (Thelp.within_pct 2.0 ~expected:76.92 ~actual:p)

let test_hn_sparsity () =
  (* Top-4 of 128 experts: ~4% of weights active (§7.1). *)
  let f = Hn_array.active_fraction config in
  Alcotest.(check bool) (Printf.sprintf "active fraction %.3f" f) true
    (f > 0.02 && f < 0.06)

let test_hn_dense_counterfactual () =
  (* Without MoE sparsity the array would burn an order of magnitude more. *)
  Alcotest.(check bool) "dense >> sparse" true
    (Hn_array.power_if_dense_w config > 10.0 *. Hn_array.power_w config)

let test_hn_stream_cycles () =
  Alcotest.(check int) "2880 fp16 at 4B/cycle" ((2880 * 2 / 4) + 16)
    (Hn_array.stream_cycles ~bytes:(2880 * 2))

(* --- Interconnect engine / control ------------------------------------------ *)

let test_ice_power () =
  (* Table 1: 49.65 W; our link-energy derivation must land close. *)
  let p = Interconnect_engine.power_w in
  Alcotest.(check bool) (Printf.sprintf "power %.1f" p) true
    (Thelp.within_pct 3.0 ~expected:49.65 ~actual:p)

let test_pipeline_slots () =
  (* §5.2: 6 stages x 36 layers = 216. *)
  Alcotest.(check int) "216 slots" 216 (Control_unit.pipeline_slots config)

(* --- Floorplan (Table 1) ------------------------------------------------------ *)

let fp = Floorplan.table1 ()

let test_floorplan_total_area () =
  (* Table 1: 827.08 mm². *)
  Alcotest.(check bool)
    (Printf.sprintf "total area %.1f" fp.Floorplan.total_area_mm2)
    true
    (Thelp.within_pct 1.0 ~expected:827.08 ~actual:fp.Floorplan.total_area_mm2)

let test_floorplan_total_power () =
  (* Table 1: 308.39 W. *)
  Alcotest.(check bool)
    (Printf.sprintf "total power %.1f" fp.Floorplan.total_power_w)
    true
    (Thelp.within_pct 1.0 ~expected:308.39 ~actual:fp.Floorplan.total_power_w)

let test_floorplan_system_silicon () =
  (* Table 2: 13,232 mm² over 16 chips. *)
  let s = Floorplan.system_silicon_mm2 fp in
  Alcotest.(check bool) (Printf.sprintf "system %.0f mm2" s) true
    (Thelp.within_pct 1.0 ~expected:13232.0 ~actual:s)

let test_floorplan_system_power () =
  (* Table 2: 6.9 kW. *)
  let p = Floorplan.system_power_w fp in
  Alcotest.(check bool) (Printf.sprintf "system %.2f kW" (p /. 1e3)) true
    (Thelp.within_pct 1.0 ~expected:6900.0 ~actual:p)

let test_floorplan_hn_dominates () =
  (* Table 1: HN array is 69.3% of area. *)
  let share = Floorplan.area_share fp "HN Array" in
  Alcotest.(check bool) (Printf.sprintf "share %.3f" share) true
    (Thelp.within_pct 2.0 ~expected:0.693 ~actual:share)

let test_floorplan_power_density () =
  (* §7.1: average 0.3 W/mm² — well within 2.5D cooling limits. *)
  let d = Floorplan.power_density_w_per_mm2 fp in
  Alcotest.(check bool) (Printf.sprintf "%.3f W/mm2" d) true (d > 0.2 && d < 0.5)

let test_floorplan_table_renders () =
  let s = Table.render (Floorplan.to_table fp) in
  Alcotest.(check bool) "has all blocks" true
    (Thelp.contains s "HN Array" && Thelp.contains s "Attention Buffer"
    && Thelp.contains s "Total")

(* --- Schedules ------------------------------------------------------------ *)

(* The explicit collective step plans the Interconnect Engine sequences,
   checked on the fabric by [Noc_rules] and against [Layer_program]. *)

let col0 = Topology.col_group 0

(* The signoff errors [Noc_rules] raises against [plan] as a plan of
   [coll]. *)
let plan_errors coll plan =
  List.filter
    (fun d -> d.Diagnostic.severity = Diagnostic.Error)
    (Noc_rules.check ~subject:"plan" coll plan)

let check_valid coll plan =
  Alcotest.(check (list string)) "valid on fabric" []
    (List.map (fun d -> d.Diagnostic.message) (plan_errors coll plan))

let test_schedule_all_reduce_shape () =
  let plan = Schedule.all_reduce ~group:col0 ~bytes:1024 in
  Alcotest.(check int) "two steps" 2 (List.length plan);
  Alcotest.(check int) "six transfers" 6 (Schedule.transfer_count plan);
  check_valid (Schedule.All_reduce { group = col0; bytes = 1024 }) plan

let test_schedule_all_gather_ring () =
  let coll = Schedule.All_gather { group = Topology.row_group 1; shard_bytes = 256 } in
  let plan = Schedule.canonical coll in
  Alcotest.(check int) "k-1 steps" 3 (List.length plan);
  Alcotest.(check int) "k transfers per step" 4 (List.length (List.hd plan));
  check_valid coll plan

let test_schedule_all_chip () =
  let coll = Schedule.All_chip_all_reduce { bytes = 5760 } in
  let plan = Schedule.canonical coll in
  Alcotest.(check int) "four steps" 4 (List.length plan);
  (* 4 cols x 3 + 4 cols x 3 + rows likewise = 48 transfers. *)
  Alcotest.(check int) "48 transfers" 48 (Schedule.transfer_count plan);
  check_valid coll plan

let test_schedule_rejects_nonlinks () =
  (* A hand-built diagonal transfer must be flagged. *)
  let bogus = [ [ { Schedule.src = 0; dst = 5; bytes = 8 } ] ] in
  Alcotest.(check bool) "diagonal flagged" true
    (List.exists
       (fun d -> d.Diagnostic.rule = "NOC-LINK")
       (plan_errors (Schedule.Reduce { root = 5; group = [ 0; 5 ]; bytes = 8 }) bogus))

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
        (fun coll -> plan_errors coll (Schedule.canonical coll) = [])
        [
          Schedule.All_reduce { group = col; bytes };
          Schedule.All_gather { group = row; shard_bytes = bytes };
          Schedule.Reduce { root = List.hd col; group = col; bytes };
          Schedule.Broadcast { root = List.hd row; group = row; bytes };
          Schedule.Scatter { root = List.hd row; group = row; shard_bytes = bytes };
          Schedule.All_chip_all_reduce { bytes };
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

(* --- Thermal (§7.1) ------------------------------------------------------- *)

let thermal = Thermal.analyze ()

let test_thermal_average () =
  (* Paper: avg 0.3 W/mm² (308 W / 827 mm² = 0.37 computed). *)
  Alcotest.(check bool)
    (Printf.sprintf "avg %.3f W/mm2" thermal.Thermal.average_w_per_mm2)
    true
    (thermal.Thermal.average_w_per_mm2 > 0.25 && thermal.Thermal.average_w_per_mm2 < 0.45)

let test_thermal_peak () =
  (* Paper: peak 1.4 W/mm². *)
  Alcotest.(check bool)
    (Printf.sprintf "peak %.2f W/mm2" thermal.Thermal.peak_w_per_mm2)
    true
    (thermal.Thermal.peak_w_per_mm2 > 1.0 && thermal.Thermal.peak_w_per_mm2 < 1.6)

let test_thermal_within_limits () =
  Alcotest.(check bool) "within 2.5D cooling limits" true thermal.Thermal.within_limits;
  Alcotest.(check bool)
    (Printf.sprintf "junction %.1fC < 105C" thermal.Thermal.junction_temp_c)
    true
    (thermal.Thermal.junction_temp_c < Thermal.max_junction_c)

let test_thermal_hn_array_is_cool () =
  (* §7.1: "The power density of the HN array is significantly lower than
     other components" — the MoE sparsity effect. *)
  let hn =
    List.find
      (fun d -> d.Thermal.thermal_block = "HN Array")
      thermal.Thermal.densities
  in
  let hot = Thermal.hotspot thermal in
  Alcotest.(check bool) "HN array is not the hotspot" true
    (hn.Thermal.density_w_per_mm2 < 0.25 *. hot.Thermal.density_w_per_mm2)

(* --- Vex_sim hardware nonlinearities ----------------------------------------- *)

let test_exp_accuracy () =
  let e = Vex_sim.max_rel_error_exp ~lo:(-20.0) ~hi:20.0 ~samples:5000 in
  Alcotest.(check bool) (Printf.sprintf "exp err %.2e" e) true (e < 1e-3)

let test_rsqrt_accuracy () =
  let e = Vex_sim.max_rel_error_rsqrt ~lo:1e-6 ~hi:1e6 ~samples:5000 in
  Alcotest.(check bool) (Printf.sprintf "rsqrt err %.2e" e) true (e < 1e-3)

let test_exp_clamps () =
  Alcotest.(check bool) "no overflow" true (Float.is_finite (Vex_sim.exp_hw 1e9));
  Alcotest.(check bool) "no underflow to nan" true (Vex_sim.exp_hw (-1e9) >= 0.0)

let test_sigmoid_properties () =
  Alcotest.(check bool) "sigmoid(0) ~ 0.5" true
    (Float.abs (Vex_sim.sigmoid_hw 0.0 -. 0.5) < 1e-3);
  Alcotest.(check bool) "symmetric" true
    (Float.abs (Vex_sim.sigmoid_hw 2.0 +. Vex_sim.sigmoid_hw (-2.0) -. 1.0) < 1e-3)

let test_softmax_hw_close () =
  let v = [| 1.0; -2.0; 0.3; 4.0 |] in
  let hw = Vex_sim.softmax_hw v and ref_ = Vec.softmax v in
  Alcotest.(check bool) "close" true (Vec.max_abs_diff hw ref_ < 1e-3);
  Alcotest.(check bool) "normalized" true
    (Float.abs (Array.fold_left ( +. ) 0.0 hw -. 1.0) < 1e-9)

let test_rmsnorm_hw_close () =
  let rng = Rng.create 9 in
  let v = Vec.gaussian rng 64 in
  let gain = Array.make 64 1.0 in
  let hw = Vex_sim.rmsnorm_hw ~gain v and ref_ = Vec.rmsnorm ~gain v in
  let err = Vec.max_abs_diff hw ref_ /. Vec.norm2 ref_ in
  Alcotest.(check bool) (Printf.sprintf "err %.2e" err) true (err < 1e-3)

let test_transformer_layer_on_hw_nonlinear () =
  (* Evaluate a full attention-score + SwiGLU path with the hardware units
     and check it tracks the float path. *)
  let rng = Rng.create 10 in
  let gate = Vec.gaussian rng 32 and up = Vec.gaussian rng 32 in
  let hw = Vex_sim.swiglu_hw ~gate ~up and ref_ = Vec.swiglu ~gate ~up in
  Alcotest.(check bool) "swiglu tracks" true (Vec.max_abs_diff hw ref_ < 1e-3)

let prop_exp_monotone =
  QCheck.Test.make ~name:"hardware exp is monotone" ~count:200
    QCheck.(pair (float_range (-50.0) 50.0) (float_range 0.001 1.0))
    (fun (x, dx) -> Vex_sim.exp_hw (x +. dx) >= Vex_sim.exp_hw x)

let prop_rsqrt_newton_converged =
  QCheck.Test.make ~name:"rsqrt satisfies x*y^2 ~ 1" ~count:200
    QCheck.(float_range 1e-3 1e3)
    (fun x ->
      let y = Vex_sim.rsqrt_hw x in
      Float.abs ((x *. y *. y) -. 1.0) < 5e-3)

let suites =
  [
    ( "attention-buffer",
      [
        Alcotest.test_case "capacity" `Quick test_buffer_capacity;
        Alcotest.test_case "bandwidth 80TB/s" `Quick test_buffer_bandwidth;
        Alcotest.test_case "area" `Quick test_buffer_area;
        Alcotest.test_case "kv accounting" `Quick test_buffer_kv_accounting;
        Alcotest.test_case "onchip capacity" `Quick test_buffer_onchip_capacity;
        Alcotest.test_case "spill" `Quick test_buffer_spill;
        Alcotest.test_case "spill boundaries" `Quick test_buffer_spill_boundaries;
      ] );
    ( "hbm",
      [
        Alcotest.test_case "capacity" `Quick test_hbm_capacity;
        Alcotest.test_case "embedding fits" `Quick test_hbm_embedding_fits;
        Alcotest.test_case "stall overlap" `Quick test_hbm_stall_overlap;
      ] );
    ( "vex",
      [
        Alcotest.test_case "attention linear" `Quick test_vex_attention_linear;
        Alcotest.test_case "zero context" `Quick test_vex_attention_zero_context;
        Alcotest.test_case "nonlinear" `Quick test_vex_nonlinear_positive;
      ] );
    ( "hn-array",
      [
        Alcotest.test_case "weights per chip" `Quick test_hn_weights_per_chip;
        Alcotest.test_case "area 573mm2" `Quick test_hn_area;
        Alcotest.test_case "power 77W" `Quick test_hn_power;
        Alcotest.test_case "MoE sparsity" `Quick test_hn_sparsity;
        Alcotest.test_case "dense counterfactual" `Quick test_hn_dense_counterfactual;
        Alcotest.test_case "stream cycles" `Quick test_hn_stream_cycles;
      ] );
    ( "engines",
      [
        Alcotest.test_case "ICE power" `Quick test_ice_power;
        Alcotest.test_case "pipeline slots" `Quick test_pipeline_slots;
      ] );
    ( "floorplan",
      [
        Alcotest.test_case "total area 827mm2" `Quick test_floorplan_total_area;
        Alcotest.test_case "total power 308W" `Quick test_floorplan_total_power;
        Alcotest.test_case "system silicon 13232mm2" `Quick test_floorplan_system_silicon;
        Alcotest.test_case "system power 6.9kW" `Quick test_floorplan_system_power;
        Alcotest.test_case "HN share 69.3%" `Quick test_floorplan_hn_dominates;
        Alcotest.test_case "power density" `Quick test_floorplan_power_density;
        Alcotest.test_case "table renders" `Quick test_floorplan_table_renders;
      ] );
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
    Thelp.qsuite "schedule properties" [ prop_schedules_valid; prop_schedule_allreduce_correct ];
    ( "package",
      [
        Alcotest.test_case "interposer" `Quick test_package_interposer_sane;
        Alcotest.test_case "KGM decouples yield" `Quick test_kgm_decouples_yield;
        Alcotest.test_case "module cost" `Quick test_module_cost_matches_table5;
      ] );
    ( "thermal",
      [
        Alcotest.test_case "average density" `Quick test_thermal_average;
        Alcotest.test_case "peak density" `Quick test_thermal_peak;
        Alcotest.test_case "within limits" `Quick test_thermal_within_limits;
        Alcotest.test_case "HN array is cool" `Quick test_thermal_hn_array_is_cool;
      ] );
    ( "vex-sim",
      [
        Alcotest.test_case "exp accuracy" `Quick test_exp_accuracy;
        Alcotest.test_case "rsqrt accuracy" `Quick test_rsqrt_accuracy;
        Alcotest.test_case "exp clamps" `Quick test_exp_clamps;
        Alcotest.test_case "sigmoid" `Quick test_sigmoid_properties;
        Alcotest.test_case "softmax" `Quick test_softmax_hw_close;
        Alcotest.test_case "rmsnorm" `Quick test_rmsnorm_hw_close;
        Alcotest.test_case "swiglu" `Quick test_transformer_layer_on_hw_nonlinear;
      ] );
    Thelp.qsuite "vex-sim properties" [ prop_exp_monotone; prop_rsqrt_newton_converged ];
  ]
