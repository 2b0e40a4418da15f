open Hnlpu
open Hnlpu_litho

(* --- Layer stack -------------------------------------------------------- *)

let stack = Layer_stack.n5_stack

let test_stack_totals () =
  (* Appendix B note 3: 12 EUV + 58 DUV layers, 130 normalized units. *)
  Alcotest.(check int) "70 reticles" 70 (Layer_stack.total_layers stack);
  Alcotest.(check int) "12 EUV" 12 (Layer_stack.euv_layers stack);
  Alcotest.(check (float 1e-9)) "130 units" 130.0 (Layer_stack.total_units stack)

let test_stack_embedding_window () =
  Alcotest.(check (float 1e-9)) "10 embedding units" 10.0
    (Layer_stack.embedding_units stack);
  Alcotest.(check bool) "7.7% of the set" true
    (Thelp.within_pct 0.5 ~expected:(10.0 /. 130.0)
       ~actual:(Layer_stack.embedding_fraction stack));
  let names =
    List.filter_map
      (fun l -> if l.Layer_stack.embedding then Some l.Layer_stack.layer_name else None)
      stack
  in
  Alcotest.(check (list string)) "the 10 reticles of note 3"
    [ "VIA7"; "M8-MANDREL"; "M8-CUT"; "VIA8"; "M9-MANDREL"; "M9-CUT"; "VIA9";
      "M10"; "VIA10"; "M11" ]
    names

let test_stack_no_euv_shared () =
  (* "including all EUV photomasks" — every EUV reticle must be shared. *)
  Alcotest.(check bool) "EUV all homogeneous" true
    (Layer_stack.no_euv_in_embedding stack)

let test_stack_figure8_split () =
  (* Figure 8: homogeneous = 60 layers; top M12+ = 8 DUV. *)
  let homogeneous =
    List.length (List.filter (fun l -> not l.Layer_stack.embedding) stack)
  in
  Alcotest.(check int) "60 shared layers" 60 homogeneous;
  let top =
    List.length (List.filter (fun l -> l.Layer_stack.region = Layer_stack.Beol_top) stack)
  in
  Alcotest.(check int) "8 top reticles" 8 top

(* --- Mask cost ----------------------------------------------------------- *)

let m = 1.0e6

let test_mask_homogeneous_cost () =
  (* $13.85M – $27.69M. *)
  let o, p = Mask_cost.(range homogeneous_cost) in
  Alcotest.(check bool) "optimistic" true
    (Thelp.within_pct 0.5 ~expected:(13.85 *. m) ~actual:o);
  Alcotest.(check bool) "pessimistic" true
    (Thelp.within_pct 0.5 ~expected:(27.69 *. m) ~actual:p)

let test_mask_embedding_cost () =
  (* $1.15M – $2.31M per chip variant. *)
  let o, p = Mask_cost.(range embedding_cost_per_chip) in
  Alcotest.(check bool) "optimistic" true
    (Thelp.within_pct 1.0 ~expected:(1.15 *. m) ~actual:o);
  Alcotest.(check bool) "pessimistic" true
    (Thelp.within_pct 0.5 ~expected:(2.31 *. m) ~actual:p)

let test_mask_sea_of_neurons_16 () =
  (* §3.2: "$480M to $65M", re-spin "$37M". *)
  let initial = Mask_cost.sea_of_neurons_initial Mask_cost.Pessimistic ~chips:16 in
  Alcotest.(check bool)
    (Printf.sprintf "initial %.1fM ~ 64.6M" (initial /. m))
    true
    (Thelp.within_pct 1.0 ~expected:(64.6 *. m) ~actual:initial);
  let respin = Mask_cost.sea_of_neurons_respin Mask_cost.Pessimistic ~chips:16 in
  Alcotest.(check bool) "respin ~ 36.9M" true
    (Thelp.within_pct 1.0 ~expected:(36.9 *. m) ~actual:respin);
  Alcotest.(check (float 1.0)) "full custom 480M" (480.0 *. m)
    (Mask_cost.full_custom Mask_cost.Pessimistic ~chips:16)

let test_mask_savings () =
  (* §3.2: -86.5% initial, -92.3% re-spin. *)
  Alcotest.(check bool) "initial saving 86.5%" true
    (Thelp.within_pct 0.5 ~expected:0.865
       ~actual:(Mask_cost.initial_saving_fraction Mask_cost.Pessimistic ~chips:16));
  Alcotest.(check bool) "respin saving 92.3%" true
    (Thelp.within_pct 0.5 ~expected:0.923
       ~actual:(Mask_cost.respin_saving_fraction Mask_cost.Pessimistic ~chips:16))

let test_mask_16_chip_me_range () =
  (* Appendix B: "$18.46–$36.92M in total for 16 chips". *)
  let o, p = Mask_cost.(range (fun a -> sea_of_neurons_respin a ~chips:16)) in
  Alcotest.(check bool) "optimistic 18.46M" true
    (Thelp.within_pct 1.0 ~expected:(18.46 *. m) ~actual:o);
  Alcotest.(check bool) "pessimistic 36.92M" true
    (Thelp.within_pct 1.0 ~expected:(36.92 *. m) ~actual:p)

let prop_more_chips_cost_more =
  QCheck.Test.make ~name:"mask bills monotone in chip count" ~count:50
    QCheck.(int_range 1 200)
    (fun chips ->
      Mask_cost.sea_of_neurons_initial Mask_cost.Pessimistic ~chips
      < Mask_cost.sea_of_neurons_initial Mask_cost.Pessimistic ~chips:(chips + 1))

let prop_sharing_always_wins =
  QCheck.Test.make ~name:"Sea-of-Neurons never exceeds full custom (2+ chips)" ~count:50
    QCheck.(int_range 2 300)
    (fun chips ->
      Mask_cost.sea_of_neurons_initial Mask_cost.Pessimistic ~chips
      < Mask_cost.full_custom Mask_cost.Pessimistic ~chips)

(* --- Strawman ------------------------------------------------------------- *)

let test_strawman_gpt_oss () =
  (* §2.2: 176,000 mm², 200+ chips, $6B. *)
  let s = Strawman.estimate Hnlpu_model.Config.gpt_oss_120b in
  Alcotest.(check bool)
    (Printf.sprintf "area %.0f ~ 176,000 mm2" s.Strawman.area_mm2)
    true
    (Thelp.within_pct 2.0 ~expected:176000.0 ~actual:s.Strawman.area_mm2);
  Alcotest.(check bool)
    (Printf.sprintf "chips %d in 200+" s.Strawman.chips)
    true
    (s.Strawman.chips >= 200 && s.Strawman.chips <= 230);
  Alcotest.(check bool)
    (Printf.sprintf "masks %.2fB ~ $6B" (s.Strawman.mask_cost_usd /. 1e9))
    true
    (s.Strawman.mask_cost_usd >= 6.0e9 && s.Strawman.mask_cost_usd <= 7.0e9)

let test_figure2_gpu_side () =
  let g = Strawman.gpu_economics () in
  (* $780 per unit. *)
  Alcotest.(check bool)
    (Printf.sprintf "GPU $%.0f/unit" g.Strawman.cost_per_unit_usd)
    true
    (Thelp.within_pct 1.0 ~expected:780.0 ~actual:g.Strawman.cost_per_unit_usd)

let test_figure2_hardwired_side () =
  let h = Strawman.hardwired_economics Hnlpu_model.Config.gpt_oss_120b in
  Alcotest.(check int) "one unit" 1 h.Strawman.units;
  Alcotest.(check bool) "~$6B per unit" true
    (h.Strawman.cost_per_unit_usd > 6.0e9);
  (* Masks dominate wafers by 4+ orders of magnitude. *)
  Alcotest.(check bool) "mask-dominated" true
    (h.Strawman.mask_bill_usd > 10_000.0 *. h.Strawman.wafer_bill_usd)

(* --- Table 4 ---------------------------------------------------------------- *)

let test_per_chip_capacity () =
  (* ~3.61 GB of FP4 weights per chip. *)
  Alcotest.(check bool)
    (Printf.sprintf "%.3f GB/chip" (Model_nre.per_chip_weight_bytes /. 1e9))
    true
    (Thelp.within_pct 1.0 ~expected:3.61e9 ~actual:Model_nre.per_chip_weight_bytes)

let test_table4_prices () =
  (* Table 4: Kimi-K2 $462M, DeepSeek-V3 $353M, QwQ $69M, Llama-3 $38M.
     Our footprint model must land within 2% of each. *)
  List.iter
    (fun r ->
      match r.Model_nre.paper_nre_usd with
      | None -> Alcotest.fail "table4 model without paper price"
      | Some paper ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %.1fM vs paper %.0fM" r.Model_nre.model
             (r.Model_nre.nre_usd /. 1e6) (paper /. 1e6))
          true
          (Thelp.within_pct 2.0 ~expected:paper ~actual:r.Model_nre.nre_usd))
    (Model_nre.table4 ())

let test_table4_ordering () =
  match Model_nre.table4 () with
  | [ k2; ds; qwq; llama ] ->
    Alcotest.(check bool) "K2 > DS > QwQ > Llama" true
      (k2.Model_nre.nre_usd > ds.Model_nre.nre_usd
      && ds.Model_nre.nre_usd > qwq.Model_nre.nre_usd
      && qwq.Model_nre.nre_usd > llama.Model_nre.nre_usd)
  | _ -> Alcotest.fail "expected four rows"

let test_gpt_oss_chip_count () =
  (* The reference design itself must come back as 16 chips. *)
  Alcotest.(check bool) "gpt-oss ~16 chips" true
    (let c = Model_nre.chips_fractional Hnlpu_model.Config.gpt_oss_120b in
     (* [chips_fractional] uses total params (incl. embeddings); the 16-chip
        reference is defined on hardwired params, so allow the ~1% excess. *)
     c >= 16.0 && c <= 16.3)

let config = Config.gpt_oss_120b

(* --- ME-layer routing (§7.1) -------------------------------------------------- *)

let routing = Routing.analyze config

let test_routing_density () =
  (* Paper: "routing density on ME layers (M8-M11) remains below 70%". *)
  Alcotest.(check bool)
    (Printf.sprintf "utilization %.3f < 0.70" routing.Routing.utilization)
    true routing.Routing.congestion_free

let test_routing_parasitics () =
  (* Paper: avg R = 164 ohm, C = 7.8 fF. *)
  Alcotest.(check bool)
    (Printf.sprintf "R %.0f ~ 164" routing.Routing.avg_resistance_ohm)
    true
    (Thelp.within_pct 2.0 ~expected:164.0 ~actual:routing.Routing.avg_resistance_ohm);
  Alcotest.(check bool)
    (Printf.sprintf "C %.2f ~ 7.8" routing.Routing.avg_capacitance_ff)
    true
    (Thelp.within_pct 2.0 ~expected:7.8 ~actual:routing.Routing.avg_capacitance_ff)

let test_routing_timing_slack () =
  (* "manageable coupling effects": wire delay is thousands of times below
     the 1 ns cycle. *)
  Alcotest.(check bool)
    (Printf.sprintf "delay %.2f ps" routing.Routing.wire_delay_ps)
    true
    (routing.Routing.wire_delay_ps < 10.0)

let test_routing_headroom () =
  (* The 70% ceiling leaves room for somewhat larger per-chip models. *)
  let max_w = Routing.max_embeddable_weights config in
  Alcotest.(check bool) "headroom above current weights" true
    (max_w > routing.Routing.wires)

(* --- Sea-of-Neurons planning --------------------------------------------- *)

let test_reference_model_fits_exactly () =
  let p = Sea_of_neurons.plan Config.gpt_oss_120b in
  Alcotest.(check int) "gpt-oss lands on 16 chips" 16 p.Sea_of_neurons.chips_needed;
  Alcotest.(check bool) "fits" true p.Sea_of_neurons.fits_reference_16;
  (* Port slack 1.25 -> ~80% utilization on matched shapes. *)
  Alcotest.(check bool)
    (Printf.sprintf "utilization %.3f" p.Sea_of_neurons.avg_port_utilization)
    true
    (Thelp.within_pct 2.0 ~expected:0.8 ~actual:p.Sea_of_neurons.avg_port_utilization)

let test_20b_fits_prefab () =
  (* §8 future work 1: hyper-parameter updates on the same prefab — the
     20B sibling shares the geometry, so it tiles cleanly onto a few
     chips. *)
  let p = Sea_of_neurons.plan Config.gpt_oss_20b in
  Alcotest.(check bool)
    (Printf.sprintf "chips %d small" p.Sea_of_neurons.chips_needed)
    true
    (p.Sea_of_neurons.chips_needed <= 4);
  Alcotest.(check bool) "penalty near 1" true
    (Sea_of_neurons.utilization_penalty Config.gpt_oss_20b < 1.2)

let test_mismatched_shapes_pay_fragmentation () =
  let narrow =
    {
      Config.gpt_oss_20b with
      Config.name = "narrow";
      hidden = 1024;
      expert_hidden = 1024;
      q_heads = 16;
      kv_heads = 8;
    }
  in
  let penalty = Sea_of_neurons.utilization_penalty narrow in
  Alcotest.(check bool)
    (Printf.sprintf "penalty %.2f > 2" penalty)
    true (penalty > 2.0);
  let p = Sea_of_neurons.plan narrow in
  Alcotest.(check bool) "port utilization poor" true
    (p.Sea_of_neurons.avg_port_utilization < 0.4)

let test_wide_fan_in_chains_tiles () =
  (* Wo's fan-in (4096) exceeds the 3600-port tile: chained. *)
  let p = Sea_of_neurons.plan Config.gpt_oss_120b in
  let wo =
    List.find (fun d -> d.Sea_of_neurons.proj_name = "Wo") p.Sea_of_neurons.demands
  in
  Alcotest.(check int) "two tiles per Wo neuron" 2 wo.Sea_of_neurons.tiles_per_neuron

let test_plan_rejects_external () =
  Alcotest.(check bool) "footprint-only rejected" true
    (try
       ignore (Sea_of_neurons.plan Config.kimi_k2);
       false
     with Invalid_argument _ -> true)

let suites =
  [
    ( "layer-stack",
      [
        Alcotest.test_case "totals" `Quick test_stack_totals;
        Alcotest.test_case "embedding window" `Quick test_stack_embedding_window;
        Alcotest.test_case "EUV shared" `Quick test_stack_no_euv_shared;
        Alcotest.test_case "figure 8 split" `Quick test_stack_figure8_split;
      ] );
    ( "mask-cost",
      [
        Alcotest.test_case "homogeneous" `Quick test_mask_homogeneous_cost;
        Alcotest.test_case "embedding per chip" `Quick test_mask_embedding_cost;
        Alcotest.test_case "sea-of-neurons 16 chips" `Quick test_mask_sea_of_neurons_16;
        Alcotest.test_case "saving fractions" `Quick test_mask_savings;
        Alcotest.test_case "16-chip ME range" `Quick test_mask_16_chip_me_range;
      ] );
    Thelp.qsuite "mask-cost properties" [ prop_more_chips_cost_more; prop_sharing_always_wins ];
    ( "strawman",
      [
        Alcotest.test_case "gpt-oss $6B" `Quick test_strawman_gpt_oss;
        Alcotest.test_case "figure 2 GPU side" `Quick test_figure2_gpu_side;
        Alcotest.test_case "figure 2 hardwired side" `Quick test_figure2_hardwired_side;
      ] );
    ( "table-4",
      [
        Alcotest.test_case "per-chip capacity" `Quick test_per_chip_capacity;
        Alcotest.test_case "paper prices within 2%" `Quick test_table4_prices;
        Alcotest.test_case "ordering" `Quick test_table4_ordering;
        Alcotest.test_case "gpt-oss 16 chips" `Quick test_gpt_oss_chip_count;
      ] );
    ( "routing",
      [
        Alcotest.test_case "density < 70%" `Quick test_routing_density;
        Alcotest.test_case "parasitics 164/7.8" `Quick test_routing_parasitics;
        Alcotest.test_case "timing slack" `Quick test_routing_timing_slack;
        Alcotest.test_case "headroom" `Quick test_routing_headroom;
      ] );
    ( "sea-of-neurons",
      [
        Alcotest.test_case "reference fits 16" `Quick test_reference_model_fits_exactly;
        Alcotest.test_case "20B fits" `Quick test_20b_fits_prefab;
        Alcotest.test_case "fragmentation penalty" `Quick test_mismatched_shapes_pay_fragmentation;
        Alcotest.test_case "tile chaining" `Quick test_wide_fan_in_chains_tiles;
        Alcotest.test_case "rejects external" `Quick test_plan_rejects_external;
      ] );
  ]
