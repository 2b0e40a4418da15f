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

let test_mask_sea_of_neurons_16 () =
  (* §3.2: "$480M to $65M", re-spin "$37M"; the records hold the last two. *)
  Alcotest.(check (float 1.0)) "full custom 480M" 480.0e6
    (Mask_cost.full_custom Mask_cost.Pessimistic ~chips:16)

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

let test_figure2_hardwired_side () =
  (* One hardwired unit bears the whole bill of one full mask set per
     chip. *)
  let s = Strawman.estimate Hnlpu_model.Config.gpt_oss_120b in
  Alcotest.(check (float 1.0)) "one set per chip"
    (float_of_int s.Strawman.chips *. Mask_cost.full_set_usd Mask_cost.Pessimistic)
    s.Strawman.mask_cost_usd;
  Alcotest.(check bool) "~$6B per unit" true (s.Strawman.mask_cost_usd > 6.0e9);
  (* Masks dominate Figure 2's ~5 wafers, at the GPU side's wafer price,
     by 4+ orders of magnitude. *)
  let g = Strawman.gpu_economics () in
  let wafer_usd = g.Strawman.wafer_bill_usd /. float_of_int g.Strawman.wafers in
  Alcotest.(check bool) "mask-dominated" true
    (s.Strawman.mask_cost_usd > 10_000.0 *. 5.0 *. wafer_usd)

(* --- Table 4 ---------------------------------------------------------------- *)

let test_table4_ordering () =
  match List.map Model_nre.row Hnlpu_model.Config.table4_models with
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
        Alcotest.test_case "homogeneous" `Quick (Thelp.paper "Table 5" "Homogeneous mask (opt.)");
        Alcotest.test_case "embedding per chip" `Quick (Thelp.paper "Side claims" "App. B ME masks per chip (opt.)");
        Alcotest.test_case "sea-of-neurons 16 chips" `Quick test_mask_sea_of_neurons_16;
        Alcotest.test_case "saving fractions" `Quick (Thelp.paper "Side claims" "§3.2 initial mask saving, 16 chips");
        Alcotest.test_case "16-chip ME range" `Quick (Thelp.paper "Table 5" "Metal-Embedding mask (opt.)");
      ] );
    Thelp.qsuite "mask-cost properties" [ prop_more_chips_cost_more; prop_sharing_always_wins ];
    ( "strawman",
      [
        Alcotest.test_case "gpt-oss $6B" `Quick (Thelp.paper "Figure 2" "Straw-man mask bill");
        Alcotest.test_case "figure 2 GPU side" `Quick (Thelp.paper "Figure 2" "GPU cost per unit");
        Alcotest.test_case "figure 2 hardwired side" `Quick test_figure2_hardwired_side;
      ] );
    ( "table-4",
      [
        Alcotest.test_case "per-chip capacity" `Quick (Thelp.paper "Side claims" "App. B weight bytes per chip");
        Alcotest.test_case "paper prices within 2%" `Quick (Thelp.paper "Table 4" "Kimi-K2");
        Alcotest.test_case "ordering" `Quick test_table4_ordering;
        Alcotest.test_case "gpt-oss 16 chips" `Quick test_gpt_oss_chip_count;
      ] );
    ( "routing",
      [
        Alcotest.test_case "density < 70%" `Quick (Thelp.paper "Side claims" "§7.1 ME routing density (M8-M11)");
        Alcotest.test_case "parasitics 164/7.8" `Quick (Thelp.paper "Side claims" "§7.1 wire resistance");
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
