(* Tests for the Hardwired-Neuron compiler (netlist / TCL / LVS / DRC). *)

open Hnlpu
open Hnlpu_litho

let small_gemv seed =
  Gemv.random (Rng.create seed) ~in_features:48 ~out_features:6 ~act_bits:8

(* --- Compiler: structure ------------------------------------------------ *)

let test_compile_wire_count () =
  let g = small_gemv 1 in
  let n = Hn_compiler.compile ~slack:4.0 g in
  Alcotest.(check int) "one wire per weight" (Gemv.total_macs g)
    (Hn_compiler.wire_count n)

let test_compile_overflow () =
  let open Hnlpu_fp4 in
  let g = Gemv.make ~weights:[| Array.make 32 (Fp4.of_float 1.0) |] ~act_bits:8 in
  Alcotest.(check bool) "overflow rejected" true
    (try
       ignore (Hn_compiler.compile ~slack:1.0 g);
       false
     with Invalid_argument _ -> true)

let test_compile_drc_clean () =
  let n = Hn_compiler.compile ~slack:4.0 (small_gemv 2) in
  Alcotest.(check int) "DRC clean" 0 (List.length (Hn_compiler.drc n))

let test_drc_detects_conflicts () =
  let n = Hn_compiler.compile ~slack:4.0 (small_gemv 3) in
  (* Sabotage: duplicate the first wire's (layer, track) onto the second. *)
  let broken =
    match n.Hn_compiler.wires with
    | w1 :: w2 :: rest ->
      { n with Hn_compiler.wires = w1 :: { w2 with Hn_compiler.layer = w1.Hn_compiler.layer;
                                                    track = w1.Hn_compiler.track } :: rest }
    | _ -> Alcotest.fail "expected wires"
  in
  Alcotest.(check bool) "track conflict detected" true
    (List.exists
       (function Hn_compiler.Track_conflict _ -> true | _ -> false)
       (Hn_compiler.drc broken))

let test_drc_detects_bad_layer () =
  let n = Hn_compiler.compile ~slack:4.0 (small_gemv 4) in
  let broken =
    match n.Hn_compiler.wires with
    | w :: rest -> { n with Hn_compiler.wires = { w with Hn_compiler.layer = "M3" } :: rest }
    | _ -> Alcotest.fail "expected wires"
  in
  Alcotest.(check bool) "embedding outside M8-M11 detected" true
    (List.exists
       (function Hn_compiler.Out_of_window _ -> true | _ -> false)
       (Hn_compiler.drc broken))

let test_drc_derived_bound () =
  (* The compiler assigns layer (neuron + input) mod 4, so a bank can never
     legitimately need more than out * ceil(in/4) tracks on one layer — the
     default DRC window.  48x6 -> 72. *)
  let n = Hn_compiler.compile ~slack:4.0 (small_gemv 11) in
  Alcotest.(check int) "48x6 window" 72 (Hn_compiler.max_tracks_per_layer n);
  Alcotest.(check int) "compiled netlist inside it" 0
    (List.length (Hn_compiler.drc n));
  (* A track at exactly the window edge is out; one below is in. *)
  let with_track track =
    match n.Hn_compiler.wires with
    | w :: rest ->
      { n with Hn_compiler.wires = { w with Hn_compiler.track = track } :: rest }
    | _ -> Alcotest.fail "expected wires"
  in
  Alcotest.(check bool) "track 72 rejected" true
    (List.exists
       (function Hn_compiler.Out_of_window _ -> true | _ -> false)
       (Hn_compiler.drc (with_track 72)));
  Alcotest.(check bool) "track 71 tolerated by the window rule" false
    (List.exists
       (function Hn_compiler.Out_of_window _ -> true | _ -> false)
       (Hn_compiler.drc (with_track 71)))

let test_drc_violations_carry_wires () =
  let n = Hn_compiler.compile ~slack:4.0 (small_gemv 12) in
  let broken =
    match n.Hn_compiler.wires with
    | w1 :: w2 :: rest ->
      { n with Hn_compiler.wires = w1 :: { w2 with Hn_compiler.layer = w1.Hn_compiler.layer;
                                                    track = w1.Hn_compiler.track } :: rest }
    | _ -> Alcotest.fail "expected wires"
  in
  match Hn_compiler.drc broken with
  | [ Hn_compiler.Track_conflict (layer, track, ws) ] ->
    Alcotest.(check int) "both offenders listed" 2 (List.length ws);
    List.iter
      (fun (w : Hn_compiler.wire) ->
        Alcotest.(check string) "on the conflict layer" layer w.Hn_compiler.layer;
        Alcotest.(check int) "on the conflict track" track w.Hn_compiler.track)
      ws
  | vs -> Alcotest.failf "expected one track conflict, got %d violations" (List.length vs)

(* DRC's specification, written out quadratically: out-of-window wires in
   wire order (an unknown layer before a track outside the window), then
   track conflicts by (track, layer), then port overflows by (neuron,
   region), each listing its wires in wire order. *)
let drc_spec (n : Hn_compiler.netlist) =
  let open Hn_compiler in
  let limit = max_tracks_per_layer n in
  let ws = n.wires in
  let out_of_window =
    List.concat_map
      (fun w ->
        (if Array.mem w.layer layers then [] else [ Out_of_window w ])
        @ if w.track < 0 || w.track >= limit then [ Out_of_window w ] else [])
      ws
  in
  let groups key =
    List.map
      (fun k -> (k, List.filter (fun w -> key w = k) ws))
      (List.sort_uniq compare (List.map key ws))
  in
  out_of_window
  @ List.filter_map
      (fun ((track, layer), g) ->
        if List.length g > 1 then Some (Track_conflict (layer, track, g)) else None)
      (groups (fun w -> (w.track, w.layer)))
  @ List.filter_map
      (fun ((neuron, region), g) ->
        if List.length g > n.region_capacity then Some (Port_overflow (neuron, region, g))
        else None)
      (groups (fun w -> (w.neuron, w.region)))

let test_drc_order_matches_spec () =
  (* Seeded sabotage: wires moved onto each other's tracks, onto stray
     layers, outside the track window and into crowded regions, with the
     port capacity shrunk on some netlists. *)
  let stray = [| "M3"; "M12"; "M8 "; "m9" |] in
  let seen = Array.make 3 false in
  for seed = 1 to 40 do
    let rng = Rng.create (1000 + seed) in
    let n = Hn_compiler.compile ~slack:4.0 (small_gemv seed) in
    let pick a = a.(Rng.int rng (Array.length a)) in
    let wires = Array.of_list n.Hn_compiler.wires in
    for _ = 1 to 1 + Rng.int rng 12 do
      let i = Rng.int rng (Array.length wires) and j = Rng.int rng (Array.length wires) in
      let w = wires.(i) in
      wires.(i) <-
        (match Rng.int rng 5 with
         | 0 -> { w with Hn_compiler.layer = wires.(j).Hn_compiler.layer; track = wires.(j).Hn_compiler.track }
         | 1 -> { w with Hn_compiler.layer = pick stray; track = Rng.int rng 4 }
         | 2 -> { w with Hn_compiler.track = pick [| -1; 72; 1_000; wires.(j).Hn_compiler.track |] }
         | 3 -> { w with Hn_compiler.region = wires.(j).Hn_compiler.region; neuron = wires.(j).Hn_compiler.neuron }
         | _ -> { w with Hn_compiler.layer = pick Hn_compiler.layers })
    done;
    let capacity = if seed mod 3 = 0 then 1 + Rng.int rng 3 else n.Hn_compiler.region_capacity in
    let broken = { n with Hn_compiler.wires = Array.to_list wires; region_capacity = capacity } in
    let got = Hn_compiler.drc broken in
    List.iter
      (function
        | Hn_compiler.Track_conflict _ -> seen.(0) <- true
        | Port_overflow _ -> seen.(1) <- true
        | Out_of_window _ -> seen.(2) <- true)
      got;
    Alcotest.(check bool) (Printf.sprintf "seed %d: drc = spec" seed) true (got = drc_spec broken)
  done;
  Alcotest.(check (array bool)) "conflicts, overflows and strays all seeded" [| true; true; true |]
    seen

(* --- Compiler: LVS -------------------------------------------------------- *)

let test_lvs_passes () =
  let g = small_gemv 5 in
  let n = Hn_compiler.compile ~slack:4.0 g in
  Alcotest.(check bool) "LVS clean" true (Hn_compiler.lvs n g)

let test_lvs_catches_wrong_weight () =
  let g = small_gemv 6 in
  let n = Hn_compiler.compile ~slack:4.0 g in
  (* Move one wire to a different region: the netlist now encodes a
     different weight — exactly what LVS exists to catch. *)
  let broken =
    match n.Hn_compiler.wires with
    | w :: rest ->
      { n with
        Hn_compiler.wires =
          { w with Hn_compiler.region = (w.Hn_compiler.region + 1) mod 16 } :: rest }
    | _ -> Alcotest.fail "expected wires"
  in
  Alcotest.(check bool) "LVS fails" false (Hn_compiler.lvs broken g)

let test_extract_weights_roundtrip () =
  let g = small_gemv 7 in
  let n = Hn_compiler.compile ~slack:4.0 g in
  let extracted = Hn_compiler.extract_weights n in
  Alcotest.(check int) "one row per neuron" g.Gemv.out_features (Array.length extracted);
  Array.iteri
    (fun o row ->
      Alcotest.(check int) "one code per input" g.Gemv.in_features (Array.length row);
      Array.iteri
        (fun i w -> Alcotest.(check bool) "same code" true (Fp4.equal (Gemv.code g o i) w))
        row)
    extracted

(* --- Compiler: TCL round-trip ----------------------------------------------- *)

let test_tcl_roundtrip () =
  let g = small_gemv 8 in
  let n = Hn_compiler.compile ~slack:4.0 g in
  let n' = Hn_compiler.of_tcl (Hn_compiler.to_tcl n) in
  Alcotest.(check bool) "identical netlist" true (n = n');
  Alcotest.(check bool) "still LVS clean" true (Hn_compiler.lvs n' g)

let test_tcl_rejects_garbage () =
  Alcotest.(check bool) "bad header" true
    (try
       ignore (Hn_compiler.of_tcl "nonsense");
       false
     with Failure _ -> true)

(* of_tcl failure messages must carry the line number and the offending
   token, so a multi-million-line reticle script is debuggable. *)
let failure_of script =
  match Hn_compiler.of_tcl script with
  | exception Failure msg -> msg
  | _ -> Alcotest.fail "expected of_tcl to reject the script"

let test_tcl_truncated_statement () =
  let tcl = Hn_compiler.to_tcl (Hn_compiler.compile ~slack:4.0 (small_gemv 13)) in
  (* Cut the script mid-way through its final route statement. *)
  let cut =
    match String.rindex_opt (String.trim tcl) '-' with
    | Some i -> String.sub tcl 0 i
    | None -> Alcotest.fail "expected route statements"
  in
  let msg = failure_of cut in
  Alcotest.(check bool) "names the line and the gap" true
    (Thelp.contains msg "line" && Thelp.contains msg "truncated")

let test_tcl_duplicate_wire () =
  let tcl = Hn_compiler.to_tcl (Hn_compiler.compile ~slack:4.0 (small_gemv 14)) in
  let dup =
    match String.split_on_char '\n' (String.trim tcl) with
    | header :: (route :: _ as routes) ->
      String.concat "\n" ((header :: routes) @ [ route ])
    | _ -> Alcotest.fail "expected route statements"
  in
  let msg = failure_of dup in
  Alcotest.(check bool) "points at both lines" true
    (Thelp.contains msg "duplicate wire"
    && Thelp.contains msg "first at line 2")

let test_tcl_bad_layer_name () =
  let msg =
    failure_of
      "# hn-netlist in=4 out=1 cap=4\n\
       route -neuron 0 -input 0 -region 0 -port 0 -layer M3 -track 0"
  in
  Alcotest.(check bool) "names the layer window" true
    (Thelp.contains msg "line 2" && Thelp.contains msg "M8-M11")

let test_tcl_bad_integer_token () =
  let msg =
    failure_of
      "# hn-netlist in=4 out=1 cap=4\n\
       route -neuron zero -input 0 -region 0 -port 0 -layer M8 -track 0"
  in
  Alcotest.(check bool) "names token and line 2" true
    (Thelp.contains msg "line 2" && Thelp.contains msg "\"zero\"")

let prop_compile_lvs_always =
  QCheck.Test.make ~name:"compile then LVS always passes" ~count:40
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let g =
        Gemv.random rng
          ~in_features:(16 + Rng.int rng 48)
          ~out_features:(1 + Rng.int rng 6)
          ~act_bits:8
      in
      let n = Hn_compiler.compile ~slack:16.0 g in
      Hn_compiler.lvs n g && Hn_compiler.drc n = [])

let test_report_renders () =
  let n = Hn_compiler.compile ~slack:4.0 (small_gemv 9) in
  let s = Hn_compiler.report n in
  Alcotest.(check bool) "mentions layers" true
    (Thelp.contains s "M8" && Thelp.contains s "M11" && Thelp.contains s "wires")

(* The netlist for one chip of the real model is ~7.2B wires; compile a
   single full-width neuron bank to prove the path scales shape-wise. *)
let test_compile_full_width_neuron () =
  let g =
    Gemv.random (Rng.create 10) ~in_features:2880 ~out_features:2 ~act_bits:8
  in
  let n = Hn_compiler.compile g in
  Alcotest.(check int) "5760 wires" 5760 (Hn_compiler.wire_count n);
  Alcotest.(check bool) "LVS" true (Hn_compiler.lvs n g);
  Alcotest.(check int) "DRC" 0 (List.length (Hn_compiler.drc n))

(* --- Netlist diff ------------------------------------------------------------- *)

let test_diff_identity () =
  let g = small_gemv 20 in
  let n = Hn_compiler.compile ~slack:4.0 g in
  let d = Hn_compiler.diff n n in
  Alcotest.(check int) "no reroutes" 0 d.Hn_compiler.rerouted;
  Alcotest.(check (list string)) "no layers" [] d.Hn_compiler.layers_touched

let test_diff_counts_changes () =
  let open Hnlpu_fp4 in
  let base = Array.make 16 (Fp4.of_float 1.0) in
  let changed = Array.copy base in
  changed.(3) <- Fp4.of_float 2.0;
  changed.(7) <- Fp4.of_float (-1.0);
  let ga = Gemv.make ~weights:[| base |] ~act_bits:8 in
  let gb = Gemv.make ~weights:[| changed |] ~act_bits:8 in
  let na = Hn_compiler.compile ~slack:16.0 ga in
  let nb = Hn_compiler.compile ~slack:16.0 gb in
  let d = Hn_compiler.diff na nb in
  Alcotest.(check int) "two wires rerouted" 2 d.Hn_compiler.rerouted;
  Alcotest.(check bool) "fraction" true
    (Thelp.close ~rel:1e-9 d.Hn_compiler.rerouted_fraction (2.0 /. 16.0))

let test_diff_shape_mismatch () =
  let na = Hn_compiler.compile ~slack:8.0 (small_gemv 21) in
  let nb =
    Hn_compiler.compile ~slack:8.0
      (Gemv.random (Rng.create 22) ~in_features:24 ~out_features:6 ~act_bits:8)
  in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Hn_compiler.diff na nb);
       false
     with Invalid_argument _ -> true)

let suites =
  [
    ( "compile",
      [
        Alcotest.test_case "wire count" `Quick test_compile_wire_count;
        Alcotest.test_case "overflow" `Quick test_compile_overflow;
        Alcotest.test_case "drc clean" `Quick test_compile_drc_clean;
        Alcotest.test_case "drc track conflict" `Quick test_drc_detects_conflicts;
        Alcotest.test_case "drc bad layer" `Quick test_drc_detects_bad_layer;
        Alcotest.test_case "drc derived bound" `Quick test_drc_derived_bound;
        Alcotest.test_case "drc order = spec" `Quick test_drc_order_matches_spec;
        Alcotest.test_case "drc violations carry wires" `Quick
          test_drc_violations_carry_wires;
        Alcotest.test_case "full-width neuron" `Quick test_compile_full_width_neuron;
      ] );
    ( "lvs",
      [
        Alcotest.test_case "passes" `Quick test_lvs_passes;
        Alcotest.test_case "catches wrong weight" `Quick test_lvs_catches_wrong_weight;
        Alcotest.test_case "extract roundtrip" `Quick test_extract_weights_roundtrip;
      ] );
    ( "tcl",
      [
        Alcotest.test_case "roundtrip" `Quick test_tcl_roundtrip;
        Alcotest.test_case "rejects garbage" `Quick test_tcl_rejects_garbage;
        Alcotest.test_case "truncated statement" `Quick test_tcl_truncated_statement;
        Alcotest.test_case "duplicate wire" `Quick test_tcl_duplicate_wire;
        Alcotest.test_case "bad layer name" `Quick test_tcl_bad_layer_name;
        Alcotest.test_case "bad integer token" `Quick test_tcl_bad_integer_token;
        Alcotest.test_case "report" `Quick test_report_renders;
      ] );
    Thelp.qsuite "compiler properties" [ prop_compile_lvs_always ];
    ( "diff",
      [
        Alcotest.test_case "identity" `Quick test_diff_identity;
        Alcotest.test_case "counts changes" `Quick test_diff_counts_changes;
        Alcotest.test_case "shape mismatch" `Quick test_diff_shape_mismatch;
      ] );
  ]
