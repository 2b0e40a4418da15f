open Hnlpu_neuron
open Hnlpu_util

let tech = Hnlpu_gates.Tech.n5

let small_gemv ?(seed = 11) ?(inf = 64) ?(outf = 8) () =
  let rng = Rng.create seed in
  let g = Gemv.random rng ~in_features:inf ~out_features:outf ~act_bits:8 in
  let x = Gemv.random_activations rng g in
  (g, x)

(* --- Gemv -------------------------------------------------------------- *)

let test_gemv_reference_manual () =
  let open Hnlpu_fp4 in
  let weights = [| [| Fp4.of_float 2.0; Fp4.of_float (-0.5) |] |] in
  let g = Gemv.make ~weights ~act_bits:8 in
  (* 2*10 + (-0.5)*4 = 18 -> 36 half-units *)
  Alcotest.(check (array int)) "dot" [| 36 |] (Gemv.reference g [| 10; 4 |]);
  Alcotest.(check (array (float 1e-12))) "float" [| 18.0 |]
    (Gemv.reference_float g [| 10; 4 |])

let test_gemv_validation () =
  Alcotest.(check bool) "ragged rejected" true
    (try
       ignore
         (Gemv.make
            ~weights:[| [| Hnlpu_fp4.Fp4.zero |]; [||] |]
            ~act_bits:8);
       false
     with Invalid_argument _ -> true)

let test_gemv_codes_round_trip () =
  (* [make] packs each row into the bytes; [code] reads back exactly the
     matrix it was given, over ragged-free random shapes. *)
  let rng = Rng.create 21 in
  List.iter
    (fun (outf, inf) ->
      let weights =
        Array.init outf (fun _ -> Array.init inf (fun _ -> Hnlpu_fp4.Fp4.of_code (Rng.int rng 16)))
      in
      let g = Gemv.make ~weights ~act_bits:8 in
      Alcotest.(check int) (Printf.sprintf "%dx%d bytes" outf inf) (outf * inf) (Bytes.length g.Gemv.codes);
      let back = Array.init outf (fun o -> Array.init inf (fun i -> Gemv.code g o i)) in
      Alcotest.(check bool) (Printf.sprintf "%dx%d codes" outf inf) true (back = weights))
    [ (1, 1); (1, 7); (7, 1); (3, 33); (128, 1024) ];
  let g = Gemv.make ~weights:[| [| Hnlpu_fp4.Fp4.zero |] |] ~act_bits:8 in
  Alcotest.check_raises "row out of range" (Invalid_argument "Gemv.code: index out of range")
    (fun () -> ignore (Gemv.code g 1 0));
  Alcotest.check_raises "column out of range" (Invalid_argument "Gemv.code: index out of range")
    (fun () -> ignore (Gemv.code g 0 (-1)))

(* The nested [Array.init] that [Gemv.random] replaced: the oracle for its
   draw order. *)
let nested_random rng ~in_features ~out_features =
  Array.init out_features (fun _ ->
      Array.init in_features (fun _ -> Hnlpu_fp4.Fp4.of_code (Rng.int rng 16)))

let test_gemv_random_draw_order () =
  List.iter
    (fun (seed, inf, outf) ->
      let a = Rng.create seed and b = Rng.create seed in
      let g = Gemv.random a ~in_features:inf ~out_features:outf ~act_bits:8 in
      let oracle = nested_random b ~in_features:inf ~out_features:outf in
      let got = Array.init outf (fun o -> Array.init inf (fun i -> Gemv.code g o i)) in
      Alcotest.(check bool) (Printf.sprintf "seed %d %dx%d codes" seed outf inf) true (got = oracle);
      Alcotest.(check int) "generator left in the same state" (Rng.int b 1_000_000) (Rng.int a 1_000_000))
    [ (0, 1024, 128); (5, 48, 6); (9, 3, 7); (11, 2880, 2) ]

let test_gemv_footprint () =
  (* One byte per code: 16,384 data words for the 131,072 codes, plus the
     bytes' padding word and header and the 5-word record.  An
     [Fp4.t array array] took 131,334. *)
  let g = Gemv.paper_benchmark (Rng.create 0) in
  let words = Obj.reachable_words (Obj.repr g) in
  Alcotest.(check bool) (Printf.sprintf "%d words <= 16,400" words) true (words <= 16_400)

let test_gemv_paper_shape () =
  let g = Gemv.paper_benchmark (Rng.create 0) in
  Alcotest.(check int) "1024 in" 1024 g.Gemv.in_features;
  Alcotest.(check int) "128 out" 128 g.Gemv.out_features;
  Alcotest.(check int) "64KB weight SRAM" (64 * 1024)
    (Mac_array.ppa (Bank.of_gemv g)).Report.sram_bytes;
  Alcotest.(check int) "131072 macs" 131072 (Gemv.total_macs g)

(* --- Machines compute the same answer ---------------------------------- *)

(* CE and MA do not re-run the reference inside [run], so their agreement
   is checked here: the small case, then the paper benchmark's 1024x128
   shape over several seeds, with random and with extreme activations. *)
let paper_cases () =
  List.concat_map
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gemv.paper_benchmark rng in
      let half = 1 lsl (g.Gemv.act_bits - 1) in
      let n = g.Gemv.in_features in
      [
        (Printf.sprintf "seed %d random" seed, g, Gemv.random_activations rng g);
        (Printf.sprintf "seed %d all-min" seed, g, Array.make n (-half));
        (Printf.sprintf "seed %d all-max" seed, g, Array.make n (half - 1));
      ])
    [ 1; 2; 3; 4 ]

let check_machine name run_of =
  let g, x = small_gemv () in
  Alcotest.(check (array int)) (name ^ " = reference") (Gemv.reference g x) (run_of g x);
  List.iter
    (fun (case, g, x) ->
      Alcotest.(check (array int))
        (Printf.sprintf "%s = reference, paper benchmark %s" name case)
        (Gemv.reference g x) (run_of g x))
    (paper_cases ())

let test_ma_matches_reference () =
  check_machine "MA" (fun g x -> fst (Mac_array.run (Mac_array.make g) x));
  (* Tiles that straddle neuron rows at the full size. *)
  let rng = Rng.create 5 in
  let g = Gemv.paper_benchmark rng in
  let x = Gemv.random_activations rng g in
  List.iter
    (fun n_macs ->
      Alcotest.(check (array int))
        (Printf.sprintf "MA = reference, paper benchmark, %d MACs" n_macs)
        (Gemv.reference g x)
        (fst (Mac_array.run (Mac_array.make ~n_macs g) x)))
    [ 1; 1000; 3072 ]

let test_ce_matches_reference () =
  check_machine "CE" (fun g x -> fst (Cell_embedding.run (Cell_embedding.make g) x))

let test_me_matches_reference () =
  let g, x = small_gemv () in
  let out, _ = Metal_embedding.run (Metal_embedding.make ~slack:4.0 g) x in
  Alcotest.(check (array int)) "ME = reference" (Gemv.reference g x) out

let test_me_extreme_activations () =
  let rng = Rng.create 3 in
  let g = Gemv.random rng ~in_features:32 ~out_features:4 ~act_bits:8 in
  let me = Metal_embedding.make ~slack:4.0 g in
  List.iter
    (fun v ->
      let x = Array.make 32 v in
      let out, _ = Metal_embedding.run me x in
      Alcotest.(check (array int))
        (Printf.sprintf "all-%d" v)
        (Gemv.reference g x) out)
    [ -128; -1; 0; 1; 127 ]

let test_me_single_weight_value () =
  (* All weights identical: one region gets everything — needs slack 16. *)
  let open Hnlpu_fp4 in
  let weights = Array.make 2 (Array.make 20 (Fp4.of_float 3.0)) in
  let g = Gemv.make ~weights ~act_bits:8 in
  let me = Metal_embedding.make ~slack:16.0 g in
  let x = Array.init 20 (fun i -> i - 10) in
  let out, _ = Metal_embedding.run me x in
  Alcotest.(check (array int)) "skewed routing" (Gemv.reference g x) out

let test_me_slack_rejects_overflow () =
  let open Hnlpu_fp4 in
  let weights = [| Array.make 20 (Fp4.of_float 3.0) |] in
  let g = Gemv.make ~weights ~act_bits:8 in
  Alcotest.(check bool) "slack 1.0 overflows" true
    (try
       ignore (Metal_embedding.make ~slack:1.0 g);
       false
     with Invalid_argument _ -> true);
  (* The error locates the overflow: neuron, region, wires, capacity. *)
  Alcotest.check_raises "located"
    (Invalid_argument
       (Printf.sprintf
          "Bank.of_gemv: neuron 0 region %d holds 20 wires, capacity 2 — increase slack"
          (Fp4.code (Fp4.of_float 3.0))))
    (fun () -> ignore (Bank.of_gemv ~slack:1.0 g))

let test_me_identity_all_codes_planes () =
  (* ME computes Σ_c h_c·pop(p ∧ m_c) as Σ_k 2^k·pop(p ∧ B_k) − 12·pop(p)
     from 5 bit-decomposed masks of h + 12.  Neuron o's input i carries code
     (o + i) mod 16, so every neuron holds each code once and slack 1.0
     gives the tightest bank, one port per region.  A one-hot activation
     at each plane's weight (the sign plane's included) meets every code;
     an all-set plane meets all 16 at once. *)
  let weights =
    Array.init 16 (fun o -> Array.init 16 (fun i -> Hnlpu_fp4.Fp4.of_code ((o + i) mod 16)))
  in
  List.iter
    (fun bits ->
      let g = Gemv.make ~weights ~act_bits:bits in
      let me = Metal_embedding.make ~slack:1.0 g in
      Alcotest.(check int) "one port per region" 1 (Bank.of_gemv ~slack:1.0 g).Bank.capacity;
      for b = 0 to bits - 1 do
        let v = Hnlpu_fp4.Bitserial.plane_weight ~bits b in
        List.iter
          (fun x ->
            Alcotest.(check (array int))
              (Printf.sprintf "bits %d plane %d" bits b)
              (Gemv.reference g x) (fst (Metal_embedding.run me x)))
          (Array.make 16 v
          :: List.init 16 (fun j -> Array.init 16 (fun i -> if i = j then v else 0)))
      done)
    [ 2; 8; 16 ]

let prop_machines_agree =
  (* in_features up to 300 crosses several packed-word boundaries (62
     elements a word); n_macs is 1, or random and mostly not a divisor of
     in_features, so tiles straddle neuron rows. *)
  QCheck.Test.make ~name:"MA = CE = ME = reference on random problems" ~count:60
    QCheck.(triple (int_range 1 300) (int_range 1 12) (int_range 0 1000000))
    (fun (inf, outf, seed) ->
      let rng = Rng.create seed in
      let g = Gemv.random rng ~in_features:inf ~out_features:outf ~act_bits:8 in
      let x = Gemv.random_activations rng g in
      let n_macs = if Rng.int rng 4 = 0 then 1 else 1 + Rng.int rng (2 * inf) in
      let expect = Gemv.reference g x in
      let ma, _ = Mac_array.run (Mac_array.make ~n_macs g) x in
      let ce, _ = Cell_embedding.run (Cell_embedding.make g) x in
      let me, _ = Metal_embedding.run (Metal_embedding.make ~slack:16.0 g) x in
      ma = expect && ce = expect && me = expect)

let prop_me_bit_widths =
  QCheck.Test.make ~name:"ME exact across activation widths" ~count:60
    QCheck.(triple (int_range 2 16) (int_range 1 200) (int_range 0 1000000))
    (fun (bits, inf, seed) ->
      let rng = Rng.create seed in
      let g = Gemv.random rng ~in_features:inf ~out_features:3 ~act_bits:bits in
      let x = Gemv.random_activations rng g in
      let me, _ = Metal_embedding.run (Metal_embedding.make ~slack:16.0 g) x in
      me = Gemv.reference g x)

(* --- Allocation per GEMV ------------------------------------------------ *)

let test_words_per_gemv () =
  (* O(out_features) words per GEMV: the result, the packed planes and the
     report, never per wire or per MAC.  Gc.minor_words is exact for the
     calling domain; Gc.allocated_bytes lags over a window this short. *)
  let rng = Rng.create 7 in
  let g = Gemv.paper_benchmark rng in
  let x = Gemv.random_activations rng g in
  let budget = 16 * g.Gemv.out_features in
  let check name run =
    ignore (run x);
    let runs = 4 in
    (* A full major first: no collection work an earlier suite left
       pending runs inside the window. *)
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    for _ = 1 to runs do
      ignore (run x)
    done;
    let per_gemv = (Gc.minor_words () -. w0) /. float_of_int runs in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.0f words/GEMV <= %d" name per_gemv budget)
      true
      (per_gemv <= float_of_int budget)
  in
  let me = Metal_embedding.make g and ce = Cell_embedding.make g and ma = Mac_array.make g in
  check "ME" (Metal_embedding.run me);
  check "CE" (Cell_embedding.run ce);
  check "MA" (Mac_array.run ma)

(* --- Figure 12: area ratios ------------------------------------------- *)

let fig12_reports () =
  let rng = Rng.create 12 in
  let g = Gemv.paper_benchmark rng in
  let bank = Bank.of_gemv g in
  (Mac_array.ppa bank, Cell_embedding.ppa bank, Metal_embedding.ppa bank)

let test_fig12_ordering () =
  let ma, ce, me = fig12_reports () in
  Alcotest.(check bool) "CE >> MA >= ME ordering" true
    (ce.Report.area_mm2 > ma.Report.area_mm2
    && ce.Report.area_mm2 > 10.0 *. me.Report.area_mm2)

(* --- Figure 13: cycles and energy -------------------------------------- *)

let test_fig13_cycles () =
  (* Paper: MA ~150 cycles, CE and ME dramatically fewer. *)
  let ma, ce, me = fig12_reports () in
  Alcotest.(check bool) "MA dominated" true
    (ma.Report.cycles > 5 * max ce.Report.cycles me.Report.cycles)

let test_fig13_energy_ordering () =
  let ma, ce, me = fig12_reports () in
  let e r = Report.energy_j tech r in
  (* Paper: ME least, CE middle, MA most (log-scale plot 0.1–10 nJ). *)
  Alcotest.(check bool)
    (Printf.sprintf "ME %.2e < CE %.2e < MA %.2e" (e me) (e ce) (e ma))
    true
    (e me < e ce && e ce < e ma)

let test_ce_leakage_exceeds_me () =
  (* The paper's explanation of CE's energy loss: leakage from its area. *)
  let _, ce, me = fig12_reports () in
  Alcotest.(check bool) "CE leaks more" true
    (ce.Report.leakage_power_w > 5.0 *. me.Report.leakage_power_w)

(* --- Structure --------------------------------------------------------- *)

let test_me_region_accounting () =
  let rng = Rng.create 5 in
  let g = Gemv.random rng ~in_features:160 ~out_features:4 ~act_bits:8 in
  let bank = Bank.of_gemv ~slack:2.0 g in
  Alcotest.(check int) "capacity = slack * n/16" 20 bank.Bank.capacity;
  let load = bank.Bank.load in
  Alcotest.(check int) "16 regions" 16 (Array.length load);
  Array.iter
    (fun l -> Alcotest.(check bool) "load within capacity" true (l <= 20))
    load;
  Alcotest.(check int) "histogram counts every weight" (160 * 4)
    (Array.fold_left ( + ) 0 bank.Bank.histogram);
  (* The fullest neuron of each region is one of the four. *)
  let counts o c =
    let k = ref 0 in
    for i = 0 to 159 do
      if Hnlpu_fp4.Fp4.code (Gemv.code g o i) = c then incr k
    done;
    !k
  in
  Array.iteri
    (fun c l ->
      Alcotest.(check int) (Printf.sprintf "region %d load" c) l
        (List.fold_left max 0 (List.init 4 (fun o -> counts o c))))
    load;
  (* A byte that is no code is refused before ME routes a wire. *)
  Bytes.set g.Gemv.codes 3 '\200';
  Alcotest.check_raises "no code" (Invalid_argument "index out of bounds") (fun () ->
      ignore (Metal_embedding.make ~slack:16.0 g))

let test_me_serial_cycles_is_act_bits () =
  let g, _ = small_gemv () in
  let bank = Bank.of_gemv ~slack:4.0 g in
  Alcotest.(check int) "8 planes" 8 bank.Bank.act_bits;
  Alcotest.(check bool) "ME streams every plane, then drains" true
    ((Metal_embedding.ppa bank).Report.cycles > 8)

(* Each machine's PPA is a function of the bank's structure: pricing the
   bank gives, field by field, the report the machine built over its
   wires returns.  A slack that overflows a region refuses both. *)
let check_report name (a : Report.t) (b : Report.t) =
  let f field = Printf.sprintf "%s %s" name field in
  Alcotest.(check string) (f "design") b.Report.design a.Report.design;
  Alcotest.(check (float 0.0)) (f "transistors") b.Report.transistors a.Report.transistors;
  Alcotest.(check int) (f "sram_bytes") b.Report.sram_bytes a.Report.sram_bytes;
  Alcotest.(check (float 0.0)) (f "area") b.Report.area_mm2 a.Report.area_mm2;
  Alcotest.(check int) (f "cycles") b.Report.cycles a.Report.cycles;
  Alcotest.(check (float 0.0)) (f "dynamic energy") b.Report.dynamic_energy_j
    a.Report.dynamic_energy_j;
  Alcotest.(check (float 0.0)) (f "leakage") b.Report.leakage_power_w a.Report.leakage_power_w

let test_structural_report_is_built_report () =
  let rng = Rng.create 36 in
  let cyclic ~inf ~outf ~act_bits =
    Gemv.make ~act_bits
      ~weights:
        (Array.init outf (fun o ->
             Array.init inf (fun i -> Hnlpu_fp4.Fp4.of_code ((o + i) mod 16))))
  in
  let gemvs =
    [
      ("paper", Gemv.paper_benchmark rng);
      ("100x8", Gemv.random rng ~in_features:100 ~out_features:8 ~act_bits:8);
      ("37x3 4-bit", Gemv.random rng ~in_features:37 ~out_features:3 ~act_bits:4);
      ("16x1 16-bit", Gemv.random rng ~in_features:16 ~out_features:1 ~act_bits:16);
      ("cyclic 1024x128", cyclic ~inf:1024 ~outf:128 ~act_bits:8);
      ("cyclic 48x5 2-bit", cyclic ~inf:48 ~outf:5 ~act_bits:2);
    ]
  in
  List.iter
    (fun (shape, g) ->
      let x = Array.make g.Gemv.in_features 0 in
      let ce = snd (Cell_embedding.run (Cell_embedding.make g) x) in
      let ma = snd (Mac_array.run (Mac_array.make g) x) in
      List.iter
        (fun slack ->
          let name = Printf.sprintf "%s slack %.1f" shape slack in
          match Bank.of_gemv ~slack g with
          | bank ->
            check_report (name ^ " ME") (Metal_embedding.ppa bank)
              (snd (Metal_embedding.run (Metal_embedding.make ~slack g) x));
            check_report (name ^ " CE") (Cell_embedding.ppa bank) ce;
            check_report (name ^ " MA") (Mac_array.ppa bank) ma
          | exception Invalid_argument _ ->
            Alcotest.(check bool) (name ^ ": ME refuses the bank too") true
              (match Metal_embedding.make ~slack g with
               | _ -> false
               | exception Invalid_argument _ -> true))
        [ 1.0; 2.0; 16.0 ])
    gemvs

(* Figures 12 and 13 price the paper benchmark's bank: beyond the draw of
   its codes they allocate a few small arrays and three reports, never the
   ME machine's masks (128 neurons x 17 words x 5 masks = 10,880 words). *)
let test_neuron_reports_build_no_masks () =
  let seed = 20260706 in
  (* A collection landing inside the window inflates the count by tens
     of thousands of words, so each window starts on an empty heap. *)
  let words f =
    Gc.full_major ();
    let a0 = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (f ()));
    (Gc.allocated_bytes () -. a0) /. float_of_int (Sys.word_size / 8)
  in
  let draw = words (fun () -> Gemv.paper_benchmark (Rng.create seed)) in
  let reports = words (fun () -> Hnlpu.Paper.neuron_reports ~seed ()) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words beyond the %.0f-word draw <= 1,000" (reports -. draw) draw)
    true
    (reports -. draw <= 1000.0)

let test_report_table_renders () =
  let ma, ce, me = fig12_reports () in
  let t = Report.to_table tech [ ma; ce; me ] in
  let s = Table.render t in
  Alcotest.(check bool) "mentions all designs" true
    (Thelp.contains s "MAC array" && Thelp.contains s "Cell-Embedding"
    && Thelp.contains s "Metal-Embedding")

let suites =
  [
    ( "gemv",
      [
        Alcotest.test_case "manual reference" `Quick test_gemv_reference_manual;
        Alcotest.test_case "validation" `Quick test_gemv_validation;
        Alcotest.test_case "paper benchmark shape" `Quick test_gemv_paper_shape;
        Alcotest.test_case "codes round trip" `Quick test_gemv_codes_round_trip;
        Alcotest.test_case "random draw order" `Quick test_gemv_random_draw_order;
        Alcotest.test_case "footprint" `Quick test_gemv_footprint;
      ] );
    ( "machines",
      [
        Alcotest.test_case "MA = reference" `Quick test_ma_matches_reference;
        Alcotest.test_case "CE = reference" `Quick test_ce_matches_reference;
        Alcotest.test_case "ME = reference" `Quick test_me_matches_reference;
        Alcotest.test_case "ME extreme activations" `Quick test_me_extreme_activations;
        Alcotest.test_case "ME skewed weights" `Quick test_me_single_weight_value;
        Alcotest.test_case "ME slack overflow" `Quick test_me_slack_rejects_overflow;
        Alcotest.test_case "ME identity: all codes x plane weights" `Quick
          test_me_identity_all_codes_planes;
      ] );
    Thelp.qsuite "machine properties" [ prop_machines_agree; prop_me_bit_widths ];
    ("allocation", [ Alcotest.test_case "words per GEMV" `Quick test_words_per_gemv ]);
    ( "figure-12",
      [
        Alcotest.test_case "CE much bigger than SRAM" `Quick (Thelp.paper "Figure 12" "Cell-Embedding (CE)");
        Alcotest.test_case "ME comparable to SRAM" `Quick (Thelp.paper "Figure 12" "Metal-Embedding (ME)");
        Alcotest.test_case "ordering" `Quick test_fig12_ordering;
      ] );
    ( "figure-13",
      [
        Alcotest.test_case "cycles" `Quick test_fig13_cycles;
        Alcotest.test_case "energy ordering" `Quick test_fig13_energy_ordering;
        Alcotest.test_case "MA energy magnitude" `Quick (Thelp.paper "Figure 13" "MA energy");
        Alcotest.test_case "ME energy magnitude" `Quick (Thelp.paper "Figure 13" "ME energy");
        Alcotest.test_case "CE leakage" `Quick test_ce_leakage_exceeds_me;
      ] );
    ( "structure",
      [
        Alcotest.test_case "region accounting" `Quick test_me_region_accounting;
        Alcotest.test_case "serial cycles" `Quick test_me_serial_cycles_is_act_bits;
        Alcotest.test_case "structural report = built report" `Quick
          test_structural_report_is_built_report;
        Alcotest.test_case "neuron_reports builds no masks" `Quick
          test_neuron_reports_build_no_masks;
        Alcotest.test_case "report table" `Quick test_report_table_renders;
      ] );
  ]
