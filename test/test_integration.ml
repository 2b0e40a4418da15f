(* Cross-library integration tests: the whole stack working together, from
   bit-level HN machines up to end-to-end token generation and the full
   experiment suite, with its CSV/JSON exports, the calibration registry
   and the figure charts, and every HN machine's rejection of activations
   outside its bounds. *)

open Hnlpu

let test_all_experiments_render () =
  (* Every table/figure of the paper must regenerate without error and
     produce non-trivial content. *)
  List.iter
    (fun (name, table) ->
      let s = Table.render table in
      Alcotest.(check bool) (name ^ " non-empty") true (String.length s > 100))
    (Experiments.all ())

let test_experiment_count () =
  (* 4 figures + 5 tables... Figure 2 + 12 + 13 + 14 and Tables 1-5. *)
  Alcotest.(check int) "nine experiments" 9 (List.length (Experiments.all ()))

let test_shared_neuron_build () =
  (* [all] builds the neuron reports once for Figures 12 and 13; each
     table must equal the figure built alone. *)
  let all = Experiments.all () in
  List.iter
    (fun artifact ->
      let title, alone = Option.get (Experiments.find artifact) in
      match List.assoc_opt title all with
      | None -> Alcotest.failf "%s missing from Experiments.all" title
      | Some t -> Alcotest.(check string) title (Table.render alone) (Table.render t))
    [ "Figure 12"; "Figure 13" ]

let test_records_tables () =
  (* Each table of [all] is its artifact's records: a row per record,
     whose Measured cell is the record's rendering of its measurement,
     and no row without a record.  Every artifact but the side claims has
     a table. *)
  let cells line =
    match String.split_on_char '|' line with
    | "" :: cells -> List.map String.trim (List.filter (( <> ) "") cells)
    | _ -> Alcotest.failf "not a markdown row: %s" line
  in
  let all = Experiments.all () in
  let artifact title = String.sub title 0 (String.index title ':') in
  let artifacts = List.map (fun r -> r.Paper.artifact) Paper.all in
  Alcotest.(check (list string)) "artifacts"
    (List.sort_uniq compare (List.filter (( <> ) "Side claims") artifacts))
    (List.sort compare (List.map (fun (title, _) -> artifact title) all));
  List.iter
    (fun (title, table) ->
      let rows =
        match String.split_on_char '\n' (Table.to_markdown table) with
        | _header :: _rule :: lines -> List.map cells (List.filter (( <> ) "") lines)
        | _ -> Alcotest.failf "%s: no table" title
      in
      let records = List.filter (fun r -> r.Paper.artifact = artifact title) Paper.all in
      Alcotest.(check int) (title ^ ": a row per record") (List.length records) (List.length rows);
      List.iter2
        (fun (r : Paper.t) x ->
          match List.filter (fun row -> List.hd row = r.row) rows with
          | [ [ _; paper; measured; _; _ ] ] ->
            Alcotest.(check string) (r.row ^ ": paper") (Paper.printed r) paper;
            Alcotest.(check string) (r.row ^ ": measured") (r.show x) measured
          | found -> Alcotest.failf "%s, %s: %d rows" title r.row (List.length found))
        records (Paper.measures records))
    all

let test_tiny_llm_on_hn_arithmetic () =
  (* Quantize a tiny transformer's FFN-down projection onto the ME machine
     and check the hardware path tracks the float path through a real
     forward pass context. *)
  let rng = Rng.create 2026 in
  let w = Weights.random ~quantize_fp4:false rng Config.tiny in
  let t = Transformer.create w in
  ignore (Transformer.prefill t [ 1; 2; 3 ]);
  let x = Transformer.hidden_state t in
  let layer = w.Weights.layers.(0) in
  let hn = Hn_linear.of_matrix layer.Weights.wq in
  let hw = Hn_linear.apply hn x in
  let float_ref = Mat.gemv (Hn_linear.dequantized hn) x in
  let scale = Vec.norm2 float_ref /. sqrt (float_of_int (Array.length float_ref)) in
  let err = Vec.max_abs_diff hw float_ref /. Float.max scale 1e-12 in
  Alcotest.(check bool) (Printf.sprintf "hw tracks float, err %.4f" err) true (err < 0.03)

let test_generation_deterministic_across_paths () =
  (* Greedy generation through the distributed dataflow must produce the
     same token sequence as the reference transformer. *)
  let w = Weights.random (Rng.create 31415) Config.tiny_hnlpu in
  let reference = Transformer.create w in
  let distributed = Dataflow.create w in
  let steps = 6 in
  let tok = ref 5 in
  let mismatches = ref 0 in
  for _ = 1 to steps do
    let lr = Transformer.forward reference ~token:!tok in
    let ld = Dataflow.forward distributed ~token:!tok in
    let a = Vec.argmax lr and b = Vec.argmax ld in
    if a <> b then incr mismatches;
    tok := a
  done;
  Alcotest.(check int) "same greedy trajectory" 0 !mismatches

let test_perf_consistency_with_table2 () =
  (* Perf and Compare must agree on the HNLPU row. *)
  let via_perf =
    Perf.throughput_tokens_per_s Config.gpt_oss_120b ~context:2048
  in
  let via_compare = (Compare.hnlpu ()).Compare.throughput_tokens_per_s in
  Alcotest.(check (float 1.0)) "consistent" via_perf via_compare

let test_tco_consistency_with_floorplan () =
  (* Table 3's power column must derive from the same floorplan as Table 1. *)
  let fp = Floorplan.table1 () in
  let expected = Floorplan.system_power_w fp *. Pricing.pue /. 1e6 in
  let col = Tco.hnlpu_column Tco.Low in
  Alcotest.(check bool) "power consistent" true
    (Thelp.close ~rel:1e-9 expected col.Tco.datacenter_power_mw)

let test_nre_consistency () =
  (* Table 5's mask lines must equal the litho library's Sea-of-Neurons. *)
  let masks = Cost_breakdown.mask_nre_usd Pricing.Pessimistic in
  let direct = Mask_cost.sea_of_neurons_initial Mask_cost.Pessimistic ~chips:16 in
  Alcotest.(check (float 1.0)) "mask NRE consistent" direct masks

let test_scheduler_uses_perf_latency () =
  let bound = Scheduler.saturated_throughput Config.gpt_oss_120b in
  let perf = Perf.throughput_tokens_per_s Config.gpt_oss_120b ~context:2048 in
  Alcotest.(check (float 1.0)) "same bound" perf bound

let test_full_lifecycle () =
  (* The whole pipeline a deployment would run, in one test:
     1. "train" (synthesize) the weights;
     2. serve them through the 16-chip distributed dataflow;
     3. quantize one chip's Wq slice and compile it to a metal netlist;
     4. LVS the netlist, round-trip the TCL, and check the re-spin diff of
        a weight update is non-trivial but partial. *)
  let w = Weights.random (Rng.create 777) Config.tiny_hnlpu in
  (* Serve: distributed must match the monolithic reference. *)
  let reference = Transformer.create w in
  let distributed = Dataflow.create w in
  let lr = Transformer.forward reference ~token:5 in
  let ld = Dataflow.forward distributed ~token:5 in
  let scale = Vec.norm2 lr /. sqrt (float_of_int (Array.length lr)) in
  Alcotest.(check bool) "served weights match" true
    (Vec.max_abs_diff lr ld /. Float.max scale 1e-12 < 1e-4);
  (* Compile chip 0's Wq slice to metal. *)
  let slice = Mapping.extract w.Weights.layers.(0).Weights.wq
      (Mapping.wq_slice Config.tiny_hnlpu ~chip:0) in
  let quantize m =
    Gemv.make
      ~weights:
        (Array.init (Mat.cols m) (fun o ->
             let col = Mat.col m o in
             let amax = Array.fold_left (fun a v -> Float.max a (Float.abs v)) 0.0 col in
             let s = if amax = 0.0 then 1.0 else 6.0 /. amax in
             Array.map (fun v -> Fp4.of_float (v *. s)) col))
      ~act_bits:8
  in
  let g = quantize slice in
  let netlist = Hn_compiler.compile ~slack:8.0 g in
  Alcotest.(check bool) "LVS clean" true (Hn_compiler.lvs netlist g);
  Alcotest.(check int) "DRC clean" 0 (List.length (Hn_compiler.drc netlist));
  let netlist' = Hn_compiler.of_tcl (Hn_compiler.to_tcl netlist) in
  Alcotest.(check bool) "TCL round-trip" true (netlist = netlist');
  (* Weight update: perturb the slice, recompile, diff. *)
  let updated = Mat.map (fun x -> x +. 0.08) slice in
  let g' = quantize updated in
  let netlist_green = Hn_compiler.compile ~slack:8.0 g' in
  let d = Hn_compiler.diff netlist netlist_green in
  Alcotest.(check bool)
    (Printf.sprintf "update re-routes %.0f%% of wires"
       (100.0 *. d.Hn_compiler.rerouted_fraction))
    true
    (d.Hn_compiler.rerouted > 0
    && d.Hn_compiler.rerouted < d.Hn_compiler.total_wires)

let test_end_to_end_story () =
  (* The paper's arc in one test: ME makes the area affordable, the Sea of
     Neurons makes the masks affordable, and the resulting system beats the
     GPU baseline by orders of magnitude. *)
  let reports = Paper.neuron_reports () in
  let ce = List.nth reports 1 and me = List.nth reports 2 in
  Alcotest.(check bool) "ME densifies CE by >10x" true
    (ce.Neuron_report.area_mm2 > 10.0 *. me.Neuron_report.area_mm2);
  let full = Mask_cost.full_custom Mask_cost.Pessimistic ~chips:16 in
  let shared = Mask_cost.sea_of_neurons_initial Mask_cost.Pessimistic ~chips:16 in
  Alcotest.(check bool) "masks cut by >7x" true (full > 7.0 *. shared);
  let hn = Compare.hnlpu () and gpu = Compare.h100 () in
  Alcotest.(check bool) "throughput >1000x H100" true
    (Compare.throughput_ratio hn ~over:gpu > 1000.0)

(* --- Experiment exports and the calibration registry ---------------------- *)

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
  Alcotest.(check bool) "few knobs" true (List.length Hnlpu.Paper.fits < 10);
  let get name =
    (List.find (fun e -> e.Hnlpu.Paper.constant = name) Hnlpu.Paper.fits).Hnlpu.Paper.value
  in
  Alcotest.(check (float 0.0)) "contention live" Hnlpu.Perf.link_contention_factor
    (get "Perf.link_contention_factor");
  Alcotest.(check (float 0.0)) "ports live"
    (float_of_int Hnlpu.Census.popcount_port_transistors)
    (get "Census.popcount_port_transistors");
  Alcotest.(check bool) "renders" true
    (Thelp.contains (Table.render (Hnlpu.Experiments.constants ())) "Anchor");
  (* The index is the records' fitted subset, each constant fitted to one. *)
  let fitted = List.filter_map (fun r -> match r.Hnlpu.Paper.origin with Fitted f -> Some f | Derived -> None) in
  Alcotest.(check bool) "fitted records" true
    (List.sort compare (fitted Hnlpu.Paper.all) = List.sort compare Hnlpu.Paper.fits)

(* --- Figure charts ---------------------------------------------------------- *)

let test_figure_charts_render () =
  (* [render_all] ends with the three charts; each check reads from its
     chart's title on. *)
  let s = Hnlpu.Experiments.render_all () in
  let from title =
    let n = String.length title in
    let rec go i = if String.sub s i n = title then String.sub s i (String.length s - i) else go (i + 1) in
    go 0
  in
  let f12 = from "Figure 12 (" and f13 = from "Figure 13 (" and f14 = from "Figure 14 (" in
  Alcotest.(check bool) "figure 12 mentions all designs" true
    (Thelp.contains f12 "Metal-Embedding" && Thelp.contains f12 "Cell-Embedding");
  Alcotest.(check bool) "figure 13 log bars" true (Thelp.contains f13 "MAC array");
  Alcotest.(check bool) "figure 14 stacked rows" true
    (Thelp.contains f14 "512K" && Thelp.contains f14 "legend")

(* --- HN machines at their input bounds ------------------------------------ *)

let test_gemv_min_width () =
  let open Hnlpu_neuron in
  let rng = Rng.create 5 in
  let g = Gemv.random rng ~in_features:4 ~out_features:1 ~act_bits:2 in
  let x = Gemv.random_activations rng g in
  let me, _ = Metal_embedding.run (Metal_embedding.make ~slack:16.0 g) x in
  Alcotest.(check (array int)) "2-bit activations" (Gemv.reference g x) me

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
    ]

let suites =
  [
    ( "experiments",
      [
        Alcotest.test_case "all render" `Quick test_all_experiments_render;
        Alcotest.test_case "count" `Quick test_experiment_count;
        Alcotest.test_case "figures 12/13 share one build" `Quick test_shared_neuron_build;
        Alcotest.test_case "a row per record" `Quick test_records_tables;
      ] );
    ( "cross-layer",
      [
        Alcotest.test_case "tiny LLM on HN arithmetic" `Quick test_tiny_llm_on_hn_arithmetic;
        Alcotest.test_case "generation via dataflow" `Quick test_generation_deterministic_across_paths;
        Alcotest.test_case "perf = table2" `Quick test_perf_consistency_with_table2;
        Alcotest.test_case "tco = floorplan" `Quick test_tco_consistency_with_floorplan;
        Alcotest.test_case "nre = litho" `Quick test_nre_consistency;
        Alcotest.test_case "scheduler = perf" `Quick test_scheduler_uses_perf_latency;
        Alcotest.test_case "end-to-end story" `Quick test_end_to_end_story;
        Alcotest.test_case "full lifecycle" `Quick test_full_lifecycle;
      ] );
    ( "substrate-bounds",
      [ Alcotest.test_case "min-width gemv" `Quick test_gemv_min_width ]
      @ machine_rejection_cases );
    ("csv", [ Alcotest.test_case "experiments export" `Quick test_experiments_export_csv ]);
    ( "json-calibration",
      [
        Alcotest.test_case "export json" `Quick test_experiments_export_json;
        Alcotest.test_case "calibration registry" `Quick test_calibration_registry;
      ] );
    ("figure-charts", [ Alcotest.test_case "render" `Quick test_figure_charts_render ]);
  ]
