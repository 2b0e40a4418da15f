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

let () =
  Alcotest.run "hnlpu_chip"
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
    ]
