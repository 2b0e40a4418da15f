(* Tests for the source-level lint engine (Hnlpu_lint):

   - every rule family catches its seeded-broken fixture and the clean
     fixture stays clean (the self-test CI runs), and a hot-path entry
     naming nothing in a scanned library is an error;
   - DEAD-EXPORT flags exactly the fixture's unreferenced export and
     never-passed knob, judges nothing in a scan without reference
     units, and nothing when a reference unit lacks its .cmt;
   - the fixture set covers exactly the configured rule families — a new
     rule without a fixture, or a stale fixture, fails here;
   - output is deterministic: two runs serialize byte-identically;
   - the baseline round-trips through its textual format, downgrades
     matched findings to Info with the reason attached, and reports
     stale entries of scanned libraries instead of silently skipping
     them. *)

module D = Hnlpu_verify.Diagnostic
module Lint = Hnlpu_lint.Lint
module Lint_config = Hnlpu_lint.Lint_config
module Baseline = Hnlpu_lint.Baseline

(* The fixture library is linked (never called) so dune compiles it —
   and thereby emits the .cmt files this suite lints — before the suite
   runs. *)
let _force_fixture_build = Lint_fixtures.Fixture_clean.clamp 0 1 0

(* Tests run from [_build/default/test]; direct invocation from the
   workspace root also works. *)
let fixture_dirs () =
  match List.filter Sys.file_exists ("lint_fixtures" :: Lint.default_fixture_dirs) with
  | [] -> Alcotest.fail "lint fixtures not found — build with `dune build @all'"
  | dirs -> dirs

let run_fixtures () =
  let dirs = fixture_dirs () in
  Lint.run ~config:Lint.fixture_config ~dirs ~refs:dirs ()

(* --- Fixture coverage ----------------------------------------------------- *)

let test_fixtures_cover_rules () =
  let expected = List.sort String.compare (List.map (fun (r, _, _) -> r) Lint.fixture_expectations) in
  let rules = List.sort String.compare Lint_config.rules in
  Alcotest.(check (list string))
    "one seeded-broken fixture per rule family" rules expected

let test_self_test_catches_all () =
  let caught, clean, ds = Lint.self_test ~dirs:(fixture_dirs ()) () in
  List.iter
    (fun (rule, hit) ->
      Alcotest.(check bool) (rule ^ " fires on its fixture") true hit)
    caught;
  Alcotest.(check bool) "clean fixture is clean" true clean;
  Alcotest.(check bool) "fixtures produce findings" true (ds <> [])

let test_expected_severities () =
  let ds = run_fixtures () in
  List.iter
    (fun (rule, fixture, min_sev) ->
      let hit =
        List.exists
          (fun d ->
            String.equal d.D.rule rule
            && D.rank d.D.severity >= D.rank min_sev
            && List.exists (String.equal fixture)
                 (String.split_on_char '.' d.D.subject))
          ds
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s >= %s on %s" rule (D.severity_label min_sev) fixture)
        true hit)
    Lint.fixture_expectations

let test_boxed_int64_fires () =
  (* The fixture's int64 is unboxed arithmetic until it is passed to a
     non-inlined function: that escape, and only that, boxes. *)
  let ds = run_fixtures () in
  let int64_findings =
    List.filter
      (fun d ->
        String.equal d.D.rule "ALLOC-HOT"
        && D.rank d.D.severity >= D.rank D.Error
        && List.exists (String.equal "Fixture_alloc_hot")
             (String.split_on_char '.' d.D.subject)
        && Thelp.contains d.D.message "int64")
      ds
  in
  Alcotest.(check int) "one boxed int64 in Fixture_alloc_hot" 1
    (List.length int64_findings);
  Alcotest.(check bool) "it is the non-inlined call" true
    (Thelp.contains (List.hd int64_findings).D.message "low_byte")

let test_clean_module_zero_findings () =
  let ds = run_fixtures () in
  let dirty =
    List.filter
      (fun d ->
        List.exists (String.equal "Fixture_clean")
          (String.split_on_char '.' d.D.subject))
      ds
  in
  Alcotest.(check int) "no findings on Fixture_clean" 0 (List.length dirty)

let test_stale_hot_path_scoped () =
  (* Only entries of a scanned library are judged: the fixture scan sees
     Lint_fixtures, so its missing function is an Error, while the entry
     for a library outside the scan says nothing either way.  A module
     entry is live through the bindings it contains. *)
  let config =
    {
      Lint_config.hot_paths =
        [
          ("Lint_fixtures.Fixture_clean.no_such_function", Lint_config.Leaf);
          ("Lint_fixtures.No_such_module", Lint_config.Driver);
          ("Lint_fixtures.Fixture_clean", Lint_config.Driver);
          ("Hnlpu_fp4.Fp4.no_such_function", Lint_config.Leaf);
        ];
    }
  in
  let stale =
    List.filter_map
      (fun d -> if d.D.rule = "LINT-HOTPATH" then Some (d.D.subject, D.severity_label d.D.severity) else None)
      (Lint.run ~config ~dirs:(fixture_dirs ()) ~refs:[] ())
  in
  Alcotest.(check (list (pair string string)))
    "stale entries of the scanned library"
    [ ("Lint_fixtures.Fixture_clean.no_such_function", "ERROR"); ("Lint_fixtures.No_such_module", "ERROR") ]
    stale

(* --- DEAD-EXPORT ------------------------------------------------------------- *)

let dead_export_findings ds =
  List.filter_map
    (fun d ->
      if d.D.rule = "DEAD-EXPORT" then Some (d.D.subject, D.severity_label d.D.severity) else None)
    ds

let test_dead_export_fixture () =
  (* The unreferenced export and the knob no call passes are Errors; the
     referenced export and the passed knob say nothing. *)
  Alcotest.(check (list (pair string string)))
    "exactly the planted findings"
    (List.map (fun s -> (s, "ERROR")) Lint.dead_fixture_exports)
    (dead_export_findings (run_fixtures ()))

let test_dead_export_scoped () =
  (* A scan without reference units (what [--dir] runs) judges no
     DEAD-EXPORT, and leaves that rule's baseline entries unjudged. *)
  let baseline =
    [
      Baseline.entry ~rule:"DEAD-EXPORT" ~subject:"Lint_fixtures.Fixture_dead_export.unused"
        ~reason:"planted";
    ]
  in
  let ds = Lint.run_with_baseline ~baseline ~dirs:(fixture_dirs ()) ~refs:[] () in
  Alcotest.(check (list (pair string string))) "no DEAD-EXPORT" [] (dead_export_findings ds);
  Alcotest.(check bool) "no stale baseline entry" false
    (List.exists (fun d -> d.D.rule = "LINT-BASELINE") ds)

let test_dead_export_missing_cmt () =
  (* An interface whose unit has no .cmt hides that unit's references:
     LINT-LOAD names it and DEAD-EXPORT judges nothing. *)
  let dirs = fixture_dirs () in
  let cmti =
    List.find
      (fun f -> Thelp.contains f "Fixture_dead_export")
      (Hnlpu_lint.Cmt_scan.files ~suffix:".cmti" dirs)
  in
  let tmp = Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "hnlpu-lint-%d" (Unix.getpid ())) in
  Unix.mkdir tmp 0o755;
  let copy = Filename.concat tmp (Filename.basename cmti) in
  Out_channel.with_open_bin copy (fun oc ->
      output_string oc (In_channel.with_open_bin cmti In_channel.input_all));
  let ds =
    Fun.protect
      ~finally:(fun () -> Sys.remove copy; Unix.rmdir tmp)
      (fun () -> Lint.run ~config:Lint.fixture_config ~dirs ~refs:(dirs @ [ tmp ]) ())
  in
  Alcotest.(check (list (pair string string))) "no DEAD-EXPORT" [] (dead_export_findings ds);
  Alcotest.(check (list (pair string string))) "LINT-LOAD names the interface"
    [ (copy, "ERROR") ]
    (List.filter_map
       (fun d -> if d.D.rule = "LINT-LOAD" then Some (d.D.subject, D.severity_label d.D.severity) else None)
       ds)

(* --- Determinism ----------------------------------------------------------- *)

let test_json_byte_identical () =
  let a = D.to_json (run_fixtures ()) in
  let b = D.to_json (run_fixtures ()) in
  Alcotest.(check string) "two runs serialize byte-identically" a b

(* --- Baseline -------------------------------------------------------------- *)

let sample_entries =
  [
    Baseline.entry ~rule:"ALLOC-HOT" ~subject:"M.f" ~reason:"amortized growth";
    Baseline.entry ~rule:"DET-SRC" ~subject:"M.g" ~reason:"sorted downstream";
  ]

let test_baseline_round_trip () =
  let parsed = Baseline.of_string (Baseline.to_string sample_entries) in
  Alcotest.(check int) "entry count survives" 2 (List.length parsed);
  List.iter2
    (fun (a : Baseline.entry) (b : Baseline.entry) ->
      Alcotest.(check string) "rule" a.Baseline.rule b.Baseline.rule;
      Alcotest.(check string) "subject" a.Baseline.subject b.Baseline.subject;
      Alcotest.(check string) "reason" a.Baseline.reason b.Baseline.reason)
    sample_entries parsed

let test_baseline_rejects_empty_reason () =
  Alcotest.check_raises "empty reason is rejected"
    (Failure
       "baseline line 1: empty reason — every accepted finding must say why")
    (fun () -> ignore (Baseline.of_string "ALLOC-HOT\tM.f\t \n"))

let test_baseline_apply_downgrades_and_flags_stale () =
  let ds =
    [
      D.error ~rule:"ALLOC-HOT" ~subject:"M.f" "tuple allocation";
      D.error ~rule:"ALLOC-HOT" ~subject:"M.other" "record allocation";
    ]
  in
  let stale =
    Baseline.entry ~rule:"EXN-SWALLOW" ~subject:"M.gone" ~reason:"was removed"
  in
  let out = D.normalize (Baseline.apply ~libs:[ "M" ] (sample_entries @ [ stale ]) ds) in
  let find subject = List.find (fun d -> String.equal d.D.subject subject) out in
  let matched = find "M.f" in
  Alcotest.(check string) "matched finding downgraded" "INFO"
    (D.severity_label matched.D.severity);
  Alcotest.(check bool) "reason is attached" true
    (Thelp.contains matched.D.message "amortized growth");
  Alcotest.(check string) "unmatched finding keeps severity" "ERROR"
    (D.severity_label (find "M.other").D.severity);
  let lint_baseline = List.filter (fun d -> d.D.rule = "LINT-BASELINE") out in
  Alcotest.(check int) "stale entries reported" 2 (List.length lint_baseline);
  Alcotest.(check bool) "stale subject named" true
    (List.exists (fun d -> String.equal d.D.subject "M.gone") lint_baseline)

(* The library build tree: [../lib] from [_build/default/test], where the
   suite's own links have compiled every library. *)
let lib_dir sub =
  match
    List.find_opt Sys.file_exists
      [ Filename.concat "../lib" sub; Filename.concat "_build/default/lib" sub ]
  with
  | Some d -> d
  | None -> Alcotest.fail "library .cmt files not found — build with `dune build @all'"

let test_baseline_scoped_to_scanned_libraries () =
  (* A baseline entry is judged only when its library was scanned: the
     fp4-only scan says nothing about Hnlpu_util entries, live or stale,
     while the full scan matches the live one and flags the planted
     stale one. *)
  let baseline =
    [
      Baseline.entry ~rule:"ALLOC-HOT" ~subject:"Hnlpu_util.Rng.next_int64"
        ~reason:"boxed int64 reference accessor";
      Baseline.entry ~rule:"ALLOC-HOT" ~subject:"Hnlpu_util.Rng.renamed_away"
        ~reason:"planted stale entry";
    ]
  in
  let stale dirs =
    List.filter_map
      (fun d -> if d.D.rule = "LINT-BASELINE" then Some d.D.subject else None)
      (Lint.run_with_baseline ~baseline ~dirs ~refs:[] ())
  in
  Alcotest.(check (list string)) "fp4-only scan judges no Hnlpu_util entry" []
    (stale [ lib_dir "fp4" ]);
  Alcotest.(check (list string)) "full scan flags the planted stale entry"
    [ "Hnlpu_util.Rng.renamed_away" ]
    (stale [ lib_dir "" ])

let test_repo_baseline_matches_format () =
  (* The committed baseline (when visible from the test's cwd) parses and
     every entry carries a real reason. *)
  let candidates = [ "../../../lint.baseline"; "lint.baseline" ] in
  match List.find_opt Sys.file_exists candidates with
  | None -> ()
  | Some path ->
    let entries = Baseline.load path in
    Alcotest.(check bool) "committed baseline is non-empty" true (entries <> []);
    List.iter
      (fun (e : Baseline.entry) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s %s reason is justified" e.Baseline.rule
             e.Baseline.subject)
          false
          (Thelp.contains e.Baseline.reason "TODO"))
      entries

let () =
  Alcotest.run "hnlpu lint"
    [
      ( "fixtures",
        [
          Alcotest.test_case "fixtures cover rule families" `Quick
            test_fixtures_cover_rules;
          Alcotest.test_case "self-test catches all families" `Quick
            test_self_test_catches_all;
          Alcotest.test_case "expected severities" `Quick test_expected_severities;
          Alcotest.test_case "clean module stays clean" `Quick
            test_clean_module_zero_findings;
          Alcotest.test_case "boxed int64 fires" `Quick test_boxed_int64_fires;
          Alcotest.test_case "stale hot-path entry scoped" `Quick test_stale_hot_path_scoped;
          Alcotest.test_case "dead export fixture" `Quick test_dead_export_fixture;
          Alcotest.test_case "dead export scoped" `Quick test_dead_export_scoped;
          Alcotest.test_case "dead export without cmt" `Quick test_dead_export_missing_cmt;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "JSON byte-identical across runs" `Quick
            test_json_byte_identical;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "round-trip" `Quick test_baseline_round_trip;
          Alcotest.test_case "empty reason rejected" `Quick
            test_baseline_rejects_empty_reason;
          Alcotest.test_case "apply downgrades + stale" `Quick
            test_baseline_apply_downgrades_and_flags_stale;
          Alcotest.test_case "committed baseline well-formed" `Quick
            test_repo_baseline_matches_format;
          Alcotest.test_case "scoped to scanned libraries" `Quick
            test_baseline_scoped_to_scanned_libraries;
        ] );
    ]
