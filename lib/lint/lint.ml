(* Driver: discover cmt files, run the rule families, apply the
   baseline, and support the fixture self-test.

   Output is deterministic by construction: modules are visited in
   sorted order, findings are normalized (sorted + deduplicated) by
   {!Hnlpu_verify.Diagnostic.normalize}, and locations come from the
   compiler's own source positions — two runs over the same build tree
   serialize byte-identically. *)

module D = Hnlpu_verify.Diagnostic

let default_scan_dirs = [ "_build/default/lib"; "lib" ]

(* Every unit whose references keep a library export alive. *)
let default_ref_dirs =
  List.map (Filename.concat "_build/default") [ "lib"; "bin"; "examples"; "hnbench"; "test" ]
let default_fixture_dirs =
  [ "_build/default/test/lint_fixtures"; "test/lint_fixtures" ]

(* A hot-path entry is matched by name, so one whose definition was
   renamed or re-scoped silently stops checking anything.  An entry is
   stale when its library was scanned but no binding path extends it;
   entries for libraries outside the scan (a [--dir] subset, the
   fixture-only self-test) are not judged. *)
let stale_hot_paths (config : Lint_config.t) ~libs defined =
  List.filter_map
    (fun (entry, _) ->
      if
        List.mem (Lint_config.library entry) libs
        && not (List.exists (fun path -> Lint_config.path_matches ~prefix:entry path) defined)
      then
        Some
          (D.error ~rule:"LINT-HOTPATH" ~subject:entry
             "hot-path entry names no definition in the scanned modules, so \
              ALLOC-HOT checks nothing under it — rename or remove the entry")
      else None)
    config.Lint_config.hot_paths

let load_warning path =
  D.warning ~rule:"LINT-LOAD" ~subject:path
    "unreadable cmt file (compiler version mismatch or truncated build \
     artifact) — this module was NOT linted"

(* DEAD-EXPORT over the interfaces under [dirs], judged against the
   units under [refs].  A reference unit without its [.cmt] would hide
   its references, so then the rule judges nothing and says why. *)
let dead_exports ~dirs ~refs =
  match Cmt_scan.missing_cmts refs with
  | [] ->
    let interfaces, bad_intfs = Cmt_scan.load_interfaces dirs in
    let units, bad_units = Cmt_scan.load_dirs refs in
    Dead_export.check ~interfaces ~units @ List.map load_warning (bad_intfs @ bad_units)
  | missing ->
    List.map
      (fun path ->
        D.error ~rule:"LINT-LOAD" ~subject:path
          "interface without its .cmt, so its unit's references are unseen \
           and DEAD-EXPORT judged nothing — build with `dune build @check'")
      missing

(* Lint every module found under [dirs], returning the findings and the
   libraries scanned; with [refs] (reference units: none for a [--dir]
   scan) also judge DEAD-EXPORT.  Unreadable cmt files surface as
   LINT-LOAD warnings rather than silent gaps: an analyzer that quietly
   skips a module reports a clean bill it never earned. *)
let scan ?(config = Lint_config.default) ~dirs ~refs () =
  let mods, failed = Cmt_scan.load_dirs dirs in
  if mods = [] then
    failwith
      (Printf.sprintf
         "no .cmt files under %s — build first (dune build @check)"
         (String.concat ", " dirs));
  let linted =
    List.map
      (fun (m : Cmt_scan.source) ->
        Typed_lint.lint_structure ~config ~modname:m.Cmt_scan.modname
          m.Cmt_scan.structure)
      mods
  in
  let ds = List.concat_map fst linted in
  let libs =
    List.sort_uniq String.compare
      (List.map (fun (m : Cmt_scan.source) -> Lint_config.library m.Cmt_scan.modname) mods)
  in
  let stale = stale_hot_paths config ~libs (List.concat_map snd linted) in
  let dead = if refs = [] then [] else dead_exports ~dirs ~refs in
  (D.normalize (ds @ stale @ dead @ List.map load_warning failed), libs)

let run ?config ~dirs ~refs () = fst (scan ?config ~dirs ~refs ())

(* Baseline entries are judged against the same libraries as hot-path
   entries: those the scan covered.  DEAD-EXPORT entries are judged only
   when the rule ran. *)
let run_with_baseline ?baseline ~dirs ~refs () =
  let ds, libs = scan ~dirs ~refs () in
  match baseline with
  | None -> ds
  | Some b ->
    let b = if refs = [] then List.filter (fun e -> e.Baseline.rule <> "DEAD-EXPORT") b else b in
    D.normalize (Baseline.apply ~libs b ds)

(* --- Fixture self-test --------------------------------------------------- *)

(* Each family must fire on its seeded-broken fixture at the expected
   severity, and the deliberately clean module must produce nothing: a
   rule that cannot catch its own planted bug is a gate that gates
   nothing. *)
let fixture_expectations =
  [
    ("ALLOC-HOT", "Fixture_alloc_hot", D.Error);
    ("DET-SRC", "Fixture_det_src", D.Warning);
    ("PAR-ESCAPE", "Fixture_par_escape", D.Error);
    ("EXN-SWALLOW", "Fixture_exn_swallow", D.Error);
    ("DEAD-EXPORT", "Fixture_dead_export", D.Error);
  ]

let clean_fixture = "Fixture_clean"

(* The hot-path entry planted stale: it names a function the fixture
   module does not define, as an entry left behind by a rename would. *)
let stale_fixture_entry = "Lint_fixtures.Fixture_alloc_hot.renamed_loop"

(* The fixtures' hot functions, registered the way library hot paths
   are: the seeded-broken loop, the clean module's unboxed int64
   chains, which must stay silent, and the stale entry. *)
let fixture_config =
  {
    Lint_config.hot_paths =
      ("Lint_fixtures.Fixture_alloc_hot.hot_loop", Lint_config.Leaf)
      :: (stale_fixture_entry, Lint_config.Leaf)
      :: ("Lint_fixtures.Fixture_clean.draw_bits", Lint_config.Leaf)
      :: ("Lint_fixtures.Fixture_clean.exponent", Lint_config.Leaf)
      :: Lint_config.default_hot_paths;
  }

let subject_in_module ~fixture subject =
  List.exists (String.equal fixture) (String.split_on_char '.' subject)

let mentions s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

(* ALLOC-HOT's int64 model must still see a genuinely boxed int64: the
   fixture passes one to a non-inlined function. *)
let boxed_int64_caught ds =
  List.exists
    (fun d ->
      String.equal d.D.rule "ALLOC-HOT"
      && D.rank d.D.severity >= D.rank D.Error
      && subject_in_module ~fixture:"Fixture_alloc_hot" d.D.subject
      && mentions d.D.message "int64")
    ds

(* The stale entry is an Error, and the live entries beside it are not. *)
let stale_entry_caught ds =
  List.filter_map
    (fun d ->
      if String.equal d.D.rule "LINT-HOTPATH" then Some (d.D.subject, d.D.severity) else None)
    ds
  = [ (stale_fixture_entry, D.Error) ]

(* The unreferenced export and the knob no call passes are Errors, and
   the fixture's referenced export and passed knob are silent. *)
let dead_fixture_exports = [ "Lint_fixtures.Fixture_dead_export.scaled?never"; "Lint_fixtures.Fixture_dead_export.unused" ]

let dead_exports_exact ds =
  List.filter_map
    (fun d ->
      if subject_in_module ~fixture:"Fixture_dead_export" d.D.subject then Some (d.D.subject, d.D.rule, d.D.severity)
      else None)
    ds
  = List.map (fun s -> (s, "DEAD-EXPORT", D.Error)) dead_fixture_exports

(* (family, caught) per rule family, for the boxed int64, for the stale
   hot-path entry and for the exact DEAD-EXPORT verdicts, plus whether
   the clean module is clean.  The fixtures are their own reference
   units. *)
let self_test ~dirs () =
  let ds = run ~config:fixture_config ~dirs ~refs:dirs () in
  let caught =
    List.map
      (fun (rule, fixture, min_sev) ->
        let hit =
          List.exists
            (fun d ->
              String.equal d.D.rule rule
              && D.rank d.D.severity >= D.rank min_sev
              && subject_in_module ~fixture d.D.subject)
            ds
        in
        (rule, hit))
      fixture_expectations
    @ [
        ("ALLOC-HOT/int64", boxed_int64_caught ds);
        ("LINT-HOTPATH", stale_entry_caught ds);
        ("DEAD-EXPORT/exact", dead_exports_exact ds);
      ]
  in
  let clean =
    not
      (List.exists
         (fun d -> subject_in_module ~fixture:clean_fixture d.D.subject)
         ds)
  in
  (caught, clean, ds)
