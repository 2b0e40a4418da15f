(* Tests for Hnlpu_verify — the whole-design static signoff engine.

   Every rule ID gets at least one positive test (the reference design is
   clean of it) and one negative test (its seeded-broken fixture flags it
   at Error severity), plus property tests that Noc.Schedule's collective
   plans verify clean under the NOC rules for every row/column group shape
   and that mutated plans are flagged. *)

open Hnlpu_util
open Hnlpu_verify
open Hnlpu_noc

let reference = Signoff.reference ()

let reference_diagnostics = Signoff.check reference

let errors_only ds =
  List.filter (fun d -> d.Diagnostic.severity = Diagnostic.Error) ds

(* --- Diagnostic mechanics ------------------------------------------------- *)

let test_exit_codes () =
  let e = Diagnostic.error ~rule:"X" ~subject:"s" "boom" in
  let w = Diagnostic.warning ~rule:"X" ~subject:"s" "hm" in
  let i = Diagnostic.info ~rule:"X" ~subject:"s" "ok" in
  Alcotest.(check int) "clean" 0 (Diagnostic.exit_code []);
  Alcotest.(check int) "info only" 0 (Diagnostic.exit_code [ i ]);
  Alcotest.(check int) "warning" 1 (Diagnostic.exit_code [ i; w ]);
  Alcotest.(check int) "error dominates" 2 (Diagnostic.exit_code [ i; w; e ])

let test_report_renders () =
  let ds =
    [
      Diagnostic.info ~rule:"ME-LVS" ~subject:"chip00" "fine";
      Diagnostic.error ~rule:"ME-TRACK" ~subject:"chip01" "short";
    ]
  in
  let r = Diagnostic.report ~gate:"signoff" ds in
  Alcotest.(check bool) "errors first" true
    (Thelp.contains r "[ERROR ME-TRACK]" && Thelp.contains r "signoff: 1 error(s)");
  let hidden = Diagnostic.report ~gate:"signoff" ~show_info:false ds in
  Alcotest.(check bool) "info suppressed" false (Thelp.contains hidden "ME-LVS")

let test_json_renders () =
  let ds = [ Diagnostic.error ~rule:"NOC-LINK" ~subject:"plan" "a \"quoted\" hop" ] in
  let j = Diagnostic.to_json ds in
  Alcotest.(check bool) "escaped and tagged" true
    (Thelp.contains j "\"rule\": \"NOC-LINK\""
    && Thelp.contains j "\\\"quoted\\\""
    && Thelp.contains j "\"severity\": \"error\"")

let test_normalize_dedupes_and_orders () =
  let e = Diagnostic.error ~rule:"X" ~subject:"s" "boom" in
  let w = Diagnostic.warning ~rule:"W" ~subject:"s" "hm" in
  let i = Diagnostic.info ~rule:"A" ~subject:"s" "ok" in
  (* Exact duplicates collapse; severities order errors-first. *)
  Alcotest.(check int) "duplicates collapse" 3
    (List.length (Diagnostic.normalize [ i; e; w; e; i; w ]));
  (match Diagnostic.normalize [ i; w; e ] with
  | [ a; b; c ] ->
    Alcotest.(check bool) "errors first" true
      (a.Diagnostic.severity = Diagnostic.Error
      && b.Diagnostic.severity = Diagnostic.Warning
      && c.Diagnostic.severity = Diagnostic.Info)
  | _ -> Alcotest.fail "normalize changed the count");
  (* to_json goes through normalize: any input order exports byte-identically. *)
  Alcotest.(check string) "json is order-insensitive"
    (Diagnostic.to_json [ e; w; i ])
    (Diagnostic.to_json [ i; i; w; e; w ])

(* --- Reference design is signoff-clean ------------------------------------- *)

let test_reference_clean () =
  Alcotest.(check int) "no errors" 0 (List.length (errors_only reference_diagnostics));
  Alcotest.(check int) "no warnings" 0
    (Diagnostic.count Diagnostic.Warning reference_diagnostics);
  Alcotest.(check int) "exit 0" 0 (Diagnostic.exit_code reference_diagnostics)

let test_reference_checks_the_program () =
  (* Signoff checks exactly the plans the layer program runs: every entry
     on every instance, in program order, each at its canonical plan. *)
  let config = reference.Signoff.config in
  let program =
    List.concat_map
      (fun (e : Hnlpu_system.Layer_program.entry) ->
        List.init (Hnlpu_system.Layer_program.instances e.group) (fun instance ->
            Hnlpu_system.Layer_program.collective config e ~instance))
      Hnlpu_system.Layer_program.program
  in
  Alcotest.(check int) "29 plans" 29 (List.length reference.Signoff.plans);
  Alcotest.(check bool) "the program's collectives, in order" true
    (List.map (fun (_, coll, _) -> coll) reference.Signoff.plans = program);
  List.iter
    (fun (name, coll, plan) ->
      Alcotest.(check bool) (name ^ " is canonical") true (plan = Schedule.canonical coll))
    reference.Signoff.plans;
  List.iter
    (fun (i, want) ->
      let name, _, _ = List.nth reference.Signoff.plans i in
      Alcotest.(check string) "named from op and instance" want name)
    [ (0, "q.col0"); (4, "k.col0"); (23, "xo-row.row3"); (28, "moe.all") ];
  (* Every plan whose receivers add is executed: the Q, K, V, stats,
     partial-O and Xo-row instances, and the MoE all-chip all-reduce. *)
  let executed =
    List.filter_map
      (fun d ->
        if d.Diagnostic.rule = "NOC-EXEC" && d.Diagnostic.severity = Diagnostic.Info
        then Some d.Diagnostic.subject
        else None)
      reference_diagnostics
  in
  Alcotest.(check int) "NOC-EXEC on the 25 additive plans" 25 (List.length executed);
  Alcotest.(check bool) "MoE included" true (List.mem "moe.all" executed)

let test_reference_reports_every_family () =
  (* The clean run still mentions each rule family at Info level, so a
     silent rule cannot be mistaken for a passing one. *)
  List.iter
    (fun rule ->
      Alcotest.(check bool) (rule ^ " audited") true
        (Diagnostic.has_rule rule reference_diagnostics
        || List.mem rule [ "ME-TRACK"; "ME-PORT"; "ME-WINDOW"; "NOC-LINK"; "NOC-PORT" ]))
    Signoff.rules

(* --- One fixture per rule --------------------------------------------------- *)

let test_fixture rule () =
  let ds = Signoff.check (Signoff.fixture rule) in
  let want = Signoff.expected_severity rule in
  Alcotest.(check bool) (rule ^ " fires") true
    (Diagnostic.has_rule ~min_severity:want rule ds);
  Alcotest.(check int) "nonzero exit"
    (match want with Diagnostic.Warning -> 1 | _ -> 2)
    (Diagnostic.exit_code ds)

let test_fixture_positive rule () =
  Alcotest.(check bool) (rule ^ " clean on reference") false
    (Diagnostic.has_rule
       ~min_severity:(Signoff.expected_severity rule)
       rule reference_diagnostics)

let test_unknown_fixture () =
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Signoff.fixture "NO-SUCH");
       false
     with Invalid_argument _ -> true)

let test_rules_all_have_fixtures () =
  (* Round-trip: every published rule ID has a constructible fixture and a
     declared severity — so the self-test and the fixture_cases below cover
     exactly Signoff.rules (including the four static dataflow families). *)
  List.iter
    (fun rule ->
      ignore (Signoff.fixture rule);
      ignore (Signoff.expected_severity rule))
    Signoff.rules;
  Alcotest.(check int) "rule count" 20 (List.length Signoff.rules);
  List.iter
    (fun rule ->
      Alcotest.(check bool) (rule ^ " published") true (List.mem rule Signoff.rules))
    [ "NOC-DEADLOCK"; "NOC-DEFUSE"; "BUF-LIVE"; "DET-LINT" ]

let test_makespan_fixture_is_warning () =
  (* A slow-but-correct plan must gate as a Warning (exit 1), not an
     Error: the values it computes are right. *)
  let ds = Signoff.check (Signoff.fixture "NOC-MAKESPAN") in
  Alcotest.(check bool) "warning fires" true
    (Diagnostic.has_rule ~min_severity:Diagnostic.Warning "NOC-MAKESPAN" ds);
  Alcotest.(check int) "no errors" 0 (List.length (errors_only ds));
  Alcotest.(check int) "exit 1" 1 (Diagnostic.exit_code ds)

let test_defuse_fixture_conserves_bytes () =
  (* The NOC-DEFUSE fixture is the same swapped-transfer trick as NOC-EXEC
     (on another column): byte-clean, value-broken.  The static pass must
     convict it without executing anything. *)
  let d = Signoff.fixture "NOC-DEFUSE" in
  let name, coll, plan =
    List.find (fun (n, _, _) -> n = "q.col2") d.Signoff.plans
  in
  Alcotest.(check int) "NOC-BYTES still clean" 0
    (List.length (errors_only (Noc_rules.conservation ~subject:name coll plan)));
  Alcotest.(check bool) "NOC-DEFUSE convicts statically" true
    (errors_only (Static.defuse ~subject:name coll plan) <> [])

let test_exec_fixture_conserves_bytes () =
  (* The canonical NOC-EXEC fixture is invisible to the static rules: the
     swapped transfers still balance every chip's byte tally. *)
  let d = Signoff.fixture "NOC-EXEC" in
  let name, coll, plan =
    List.find (fun (n, _, _) -> n = "q.col0") d.Signoff.plans
  in
  Alcotest.(check int) "NOC-BYTES still clean" 0
    (List.length (errors_only (Noc_rules.conservation ~subject:name coll plan)));
  Alcotest.(check bool) "NOC-EXEC catches it" true
    (errors_only (Noc_rules.execution ~subject:name coll plan) <> [])

(* --- Netlist rules, directly ------------------------------------------------ *)

let bank seed =
  Hnlpu_neuron.Gemv.random (Rng.create seed) ~in_features:32 ~out_features:4
    ~act_bits:8

let test_congestion_histogram () =
  let n = Hnlpu_litho.Hn_compiler.compile ~slack:16.0 (bank 1) in
  let ds = Netlist_rules.congestion ~subject:"b" n in
  Alcotest.(check int) "info only" 0 (List.length (errors_only ds));
  Alcotest.(check bool) "histogram names layers" true
    (List.exists
       (fun d ->
         Thelp.contains d.Diagnostic.message "M8"
         && Thelp.contains d.Diagnostic.message "M11")
       ds)

let test_congestion_tight_window () =
  (* Move the first [k] wires onto M8 tracks 0..k-1.  The wires left on
     M8 sit on tracks below [limit], so M8 needs at most [limit] tracks
     at k = limit and exactly k beyond it. *)
  let n = Hnlpu_litho.Hn_compiler.compile ~slack:16.0 (bank 2) in
  let limit = Hnlpu_litho.Hn_compiler.max_tracks_per_layer n in
  let errors k =
    let wires =
      List.mapi
        (fun i w -> if i < k then { w with Hnlpu_litho.Hn_compiler.layer = "M8"; track = i } else w)
        n.Hnlpu_litho.Hn_compiler.wires
    in
    errors_only (Netlist_rules.congestion ~subject:"b" { n with Hnlpu_litho.Hn_compiler.wires })
  in
  Alcotest.(check int) "window exactly full" 0 (List.length (errors limit));
  Alcotest.(check int) "one track over the window" 1 (List.length (errors (limit + 1)))

let test_lvs_pinpoints_cell () =
  let g = bank 3 in
  let n = Hnlpu_litho.Hn_compiler.compile ~slack:16.0 g in
  let broken =
    match n.Hnlpu_litho.Hn_compiler.wires with
    | w :: rest ->
      {
        n with
        Hnlpu_litho.Hn_compiler.wires =
          { w with Hnlpu_litho.Hn_compiler.region = (w.Hnlpu_litho.Hn_compiler.region + 1) mod 16 }
          :: rest;
      }
    | _ -> Alcotest.fail "expected wires"
  in
  match errors_only (Netlist_rules.lvs ~subject:"b" broken g) with
  | [ d ] ->
    Alcotest.(check bool) "names the cell" true
      (Thelp.contains d.Diagnostic.message "n0.i0")
  | ds -> Alcotest.failf "expected one ME-LVS error, got %d" (List.length ds)

let test_mask_uniformity_accepts_different_weights () =
  let chips =
    List.map
      (fun seed ->
        ( Printf.sprintf "c%d" seed,
          Hnlpu_litho.Hn_compiler.compile ~slack:16.0 (bank (100 + seed)) ))
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check int) "uniform prefab" 0
    (List.length (errors_only (Netlist_rules.mask_uniformity chips)))

let test_mask_uniformity_rejects_shape_drift () =
  let a = Hnlpu_litho.Hn_compiler.compile ~slack:16.0 (bank 1) in
  let b =
    Hnlpu_litho.Hn_compiler.compile ~slack:16.0
      (Hnlpu_neuron.Gemv.random (Rng.create 2) ~in_features:32 ~out_features:5
         ~act_bits:8)
  in
  Alcotest.(check bool) "shape drift flagged" true
    (errors_only (Netlist_rules.mask_uniformity [ ("a", a); ("b", b) ]) <> [])

(* --- NOC rules: property tests over every group shape ----------------------- *)

(* All row/column subgroup shapes: a line (row or col), its index, and a
   subset of at least two of its four chips, encoded as a bitmask. *)
let group_gen =
  QCheck.Gen.(
    map3
      (fun is_row idx mask -> (is_row, idx mod 4, mask))
      bool (int_bound 3)
      (int_range 0 15 >>= fun m ->
       if List.length (List.filter (fun b -> m land (1 lsl b) <> 0) [ 0; 1; 2; 3 ]) >= 2
       then return m
       else return 0b0011))

let group_of (is_row, idx, mask) =
  let line = if is_row then Topology.row_group idx else Topology.col_group idx in
  List.filteri (fun i _ -> mask land (1 lsl i) <> 0) line

let group_arb =
  QCheck.make group_gen ~print:(fun (r, i, m) ->
      Printf.sprintf "%s %d mask %#x" (if r then "row" else "col") i m)

let clean coll plan = errors_only (Noc_rules.check ~subject:"p" coll plan) = []

let prop_all_reduce_verifies =
  QCheck.Test.make ~name:"all_reduce verifies clean on every group shape"
    ~count:100 group_arb
    (fun shape ->
      let group = group_of shape in
      let bytes = 4096 in
      clean (Schedule.All_reduce { group; bytes }) (Schedule.all_reduce ~group ~bytes))

let prop_all_gather_verifies =
  QCheck.Test.make ~name:"all_gather verifies clean on every group shape"
    ~count:100 group_arb
    (fun shape ->
      let group = group_of shape in
      let shard_bytes = 1024 in
      let coll = Schedule.All_gather { group; shard_bytes } in
      clean coll (Schedule.canonical coll))

let prop_dropped_transfer_flagged =
  QCheck.Test.make ~name:"dropping any transfer breaks byte conservation"
    ~count:100 group_arb
    (fun shape ->
      let group = group_of shape in
      let bytes = 4096 in
      let plan = Schedule.all_reduce ~group ~bytes in
      let mutated =
        match plan with
        | (_ :: rest) :: steps -> rest :: steps
        | _ -> plan
      in
      List.exists
        (fun d -> d.Diagnostic.rule = "NOC-BYTES")
        (errors_only (Noc_rules.check ~subject:"p" (Schedule.All_reduce { group; bytes }) mutated)))

let prop_wrong_link_flagged =
  QCheck.Test.make ~name:"rewiring a transfer off the fabric is flagged"
    ~count:100 group_arb
    (fun shape ->
      let group = group_of shape in
      let bytes = 512 in
      let plan = Schedule.canonical (Schedule.All_gather { group; shard_bytes = bytes }) in
      let diagonal_of c =
        Topology.chip_at
          ~row:((Topology.row_of c + 1) mod Topology.rows)
          ~col:((Topology.col_of c + 1) mod Topology.cols)
      in
      let mutated =
        match plan with
        | ({ Schedule.src; dst = _; bytes } :: rest) :: steps ->
          ({ Schedule.src; dst = diagonal_of src; bytes } :: rest) :: steps
        | _ -> plan
      in
      mutated = plan
      || List.exists
           (fun d -> d.Diagnostic.rule = "NOC-LINK")
           (errors_only
              (Noc_rules.check ~subject:"p"
                 (Schedule.All_gather { group; shard_bytes = bytes })
                 mutated)))

let prop_exec_passes_on_canonical =
  QCheck.Test.make ~name:"NOC-EXEC passes Schedule.all_reduce on every group shape"
    ~count:100 group_arb
    (fun shape ->
      let group = group_of shape in
      let bytes = 1024 in
      let plan = Schedule.all_reduce ~group ~bytes in
      List.for_all
        (fun d -> d.Diagnostic.severity = Diagnostic.Info)
        (Noc_rules.execution ~subject:"p"
           (Schedule.All_reduce { group; bytes })
           plan))

let prop_exec_catches_swapped_src =
  QCheck.Test.make
    ~name:"NOC-EXEC fails when one transfer's src and dst are swapped"
    ~count:100 group_arb
    (fun shape ->
      let group = group_of shape in
      let bytes = 1024 in
      let plan = Schedule.all_reduce ~group ~bytes in
      let mutated =
        match plan with
        | ({ Schedule.src; dst; bytes } :: rest) :: steps ->
          ({ Schedule.src = dst; dst = src; bytes } :: rest) :: steps
        | _ -> plan
      in
      List.exists
        (fun d ->
          d.Diagnostic.rule = "NOC-EXEC"
          && d.Diagnostic.severity = Diagnostic.Error)
        (Noc_rules.execution ~subject:"p"
           (Schedule.All_reduce { group; bytes })
           mutated))

(* --- The step engine's two instances ------------------------------------------ *)

(* Every row/column subgroup of at least two chips, as [group_of] reads
   its shape. *)
let every_group =
  List.concat_map
    (fun is_row ->
      List.concat_map
        (fun idx ->
          List.filter
            (fun group -> List.length group >= 2)
            (List.init 16 (fun mask -> group_of (is_row, idx, mask))))
        [ 0; 1; 2; 3 ])
    [ false; true ]

(* Each plan that differs from [plan] in one transfer: dropped, its
   endpoints swapped, or sent twice in its step. *)
let mutants (plan : Schedule.t) =
  List.concat
    (List.mapi
       (fun s step ->
         List.concat
           (List.mapi
              (fun i ({ Schedule.src; dst; _ } as t) ->
                let edit f =
                  List.mapi (fun s' st -> if s' = s then f st else st) plan
                in
                let at g st =
                  List.concat (List.mapi (fun i' x -> if i' = i then g x else [ x ]) st)
                in
                [
                  edit (at (fun _ -> []));
                  edit (at (fun _ -> [ { t with Schedule.src = dst; dst = src } ]));
                  edit (at (fun x -> [ x; x ]));
                ])
              step))
       plan)

(* [Schedule.run]'s value on every chip is the sum of its
   [Schedule.run_symbolic] final contributions, each origin's vector times
   its count; chips that produce nothing start at zero on both.  Union
   plans merge shards, which [run] refuses. *)
let instances_agree coll plan =
  let { Schedule.producers; _ } = Schedule.semantics coll in
  let rng = Rng.create 11 in
  let vals =
    List.map
      (fun c ->
        if List.mem c producers then (c, Hnlpu_tensor.Vec.gaussian rng 4)
        else (c, Array.make 4 0.0))
      (Schedule.members coll)
  in
  let sym = Schedule.run_symbolic coll plan in
  match Schedule.run ~plan coll vals with
  | exception Invalid_argument _ ->
    (Schedule.semantics coll).Schedule.mode 0 = Schedule.Union
  | results ->
    List.for_all
      (fun (c, got) ->
        let want = Array.make 4 0.0 in
        List.iter
          (fun (o, n) ->
            Array.iteri
              (fun i x -> want.(i) <- want.(i) +. (float_of_int n *. x))
              (List.assoc o vals))
          (Option.value ~default:[] (List.assoc_opt c sym.Schedule.finals));
        Hnlpu_tensor.Vec.max_abs_diff got want < 1e-9)
      results

(* Whenever executing values convicts a plan, the symbolic pass does. *)
let exec_implies_defuse coll plan =
  errors_only (Noc_rules.execution ~subject:"p" coll plan) = []
  || errors_only (Static.defuse ~subject:"p" coll plan) <> []

let test_instances_agree () =
  let cases =
    List.map (fun (_, coll, plan) -> (coll, plan)) reference.Signoff.plans
    @ List.concat_map
        (fun group ->
          let root = List.hd group and bytes = 64 in
          List.concat_map
            (fun coll ->
              List.map (fun plan -> (coll, plan)) (mutants (Schedule.canonical coll)))
            [
              Schedule.Reduce { root; group; bytes };
              Schedule.Broadcast { root; group; bytes };
              Schedule.Scatter { root; group; shard_bytes = bytes };
              Schedule.All_reduce { group; bytes };
              Schedule.All_gather { group; shard_bytes = bytes };
            ])
        every_group
  in
  List.iteri
    (fun i (coll, plan) ->
      if not (instances_agree coll plan) then
        Alcotest.failf "case %d: run and run_symbolic disagree" i;
      if not (exec_implies_defuse coll plan) then
        Alcotest.failf "case %d: NOC-EXEC errs but NOC-DEFUSE is clean" i)
    cases

(* --- Static dataflow analyses ------------------------------------------------ *)

let max_context = 65536

let static_clean coll plan =
  errors_only
    (Static.check_plan ~subject:"p" ~config:Hnlpu_model.Config.gpt_oss_120b
       ~max_context coll plan)
  = []

let col0_broadcast = Schedule.Broadcast { root = 0; group = Topology.col_group 0; bytes = 64 }

let test_deadlock_cycle_reported () =
  (* A same-step forwarding ring among three unwritten chips: nobody can
     start; the diagnostic names the cycle path. *)
  let t src dst = { Schedule.src; dst; bytes = 64 } in
  let plan = [ [ t 4 8; t 8 12; t 12 4 ] ] in
  match errors_only (Static.deadlock ~subject:"p" col0_broadcast plan) with
  | [ d ] ->
    Alcotest.(check bool) "cycle path in message" true
      (Thelp.contains d.Diagnostic.message "4->8"
      && Thelp.contains d.Diagnostic.message "waits on")
  | ds -> Alcotest.failf "expected one NOC-DEADLOCK error, got %d" (List.length ds)

let test_deadlock_chain_is_not_cycle () =
  (* Same shape minus the closing edge: an (invalid) forward chain is a
     def-use violation, not a deadlock. *)
  let t src dst = { Schedule.src; dst; bytes = 64 } in
  let plan = [ [ t 4 8; t 8 12 ] ] in
  Alcotest.(check int) "no deadlock" 0
    (List.length (errors_only (Static.deadlock ~subject:"p" col0_broadcast plan)));
  Alcotest.(check bool) "but read-before-write flagged" true
    (errors_only (Static.defuse ~subject:"p" col0_broadcast plan) <> [])

let test_defuse_unwritten_read () =
  (* A scatter where a peer forwards before the root sent it anything. *)
  let coll =
    Schedule.Scatter { root = 15; group = Topology.row_group 3; shard_bytes = 64 }
  in
  let plan = [ [ { Schedule.src = 12; dst = 13; bytes = 64 } ] ] in
  Alcotest.(check bool) "never-written read flagged" true
    (List.exists
       (fun d -> Thelp.contains d.Diagnostic.message "never-written")
       (errors_only (Static.defuse ~subject:"p" coll plan)))

let test_defuse_double_overwrite_race () =
  let t dst = { Schedule.src = 0; dst; bytes = 64 } in
  (* Two same-step broadcast deliveries into chip 4's slot. *)
  let plan = [ [ t 4; t 4; t 8; t 12 ] ] in
  Alcotest.(check bool) "write race flagged" true
    (List.exists
       (fun d -> Thelp.contains d.Diagnostic.message "race")
       (errors_only (Static.defuse ~subject:"p" col0_broadcast plan)))

let test_defuse_dead_transfer_warning () =
  (* A canonical star reduce plus a gratuitous same-step peer-to-peer copy:
     bytes-visible, value-correct (transfers read start-of-step state), but
     the copy reaches no required chip — a dead transfer, Warning only. *)
  let group = Topology.row_group 0 in
  let coll = Schedule.Reduce { root = 0; group; bytes = 64 } in
  let plan =
    match Schedule.canonical (Schedule.Reduce { root = 0; group; bytes = 64 }) with
    | [ step ] -> [ step @ [ { Schedule.src = 1; dst = 2; bytes = 64 } ] ]
    | p -> p
  in
  let ds = Static.defuse ~subject:"p" coll plan in
  Alcotest.(check int) "no errors" 0 (List.length (errors_only ds));
  Alcotest.(check bool) "dead transfer warned" true
    (List.exists
       (fun d ->
         d.Diagnostic.severity = Diagnostic.Warning
         && Thelp.contains d.Diagnostic.message "dead transfer")
       ds)

let test_buf_live_bands () =
  let config = Hnlpu_model.Config.gpt_oss_120b in
  let headroom = Static.headroom_bytes config ~max_context in
  Alcotest.(check bool) "headroom positive at 64K" true (headroom > 0);
  (* One transfer 0 -> 4 of B bytes peaks each endpoint at 2B (working copy
     + staging); pick B per band. *)
  let check_band name bytes want =
    let plan = [ [ { Schedule.src = 0; dst = 4; bytes } ] ] in
    let ds =
      Static.buffer_liveness ~subject:name ~config ~max_context plan
    in
    match ds with
    | [ d ] -> Alcotest.(check bool) name true (d.Diagnostic.severity = want)
    | _ -> Alcotest.failf "%s: expected one diagnostic" name
  in
  check_band "tiny payload is Info" 4096 Diagnostic.Info;
  check_band "94%% of headroom is a Warning" (headroom * 47 / 100) Diagnostic.Warning;
  check_band "2x headroom is an Error" headroom Diagnostic.Error

let test_det_lint_hazards () =
  let module E = Hnlpu_system.Execution in
  let clean = Static.determinism ~subject:"e" E.deterministic in
  Alcotest.(check int) "deterministic config is clean" 0
    (List.length (errors_only clean));
  Alcotest.(check bool) "audited at Info" true
    (List.exists (fun d -> d.Diagnostic.severity = Diagnostic.Info) clean);
  let hazard name e =
    Alcotest.(check bool) name true
      (errors_only (Static.determinism ~subject:"e" e) <> [])
  in
  hazard "wall-clock seed"
    { E.deterministic with E.workload_seed = E.Wall_clock };
  hazard "completion-order merge"
    { E.deterministic with E.sink_merge = E.Completion_order };
  hazard "hash-order export"
    { E.deterministic with E.export_order = E.Hash_order }

(* Every canonical Schedule generator passes every static pass, across all
   group shapes (the acceptance-criteria property). *)
let prop_static_passes_canonical_generators =
  QCheck.Test.make
    ~name:"every canonical generator passes all static passes on every shape"
    ~count:100 group_arb
    (fun shape ->
      let group = group_of shape in
      let root = List.fold_left min max_int group in
      let bytes = 4096 in
      List.for_all
        (fun coll -> static_clean coll (Schedule.canonical coll))
        [
          Schedule.Reduce { root; group; bytes };
          Schedule.Broadcast { root; group; bytes };
          Schedule.All_reduce { group; bytes };
          Schedule.All_gather { group; shard_bytes = bytes };
          Schedule.Scatter { root; group; shard_bytes = bytes };
          Schedule.All_chip_all_reduce { bytes };
        ])

(* Every ordering of four steps, by index 0..23. *)
let permutation k steps =
  let rec pick k = function
    | [] -> []
    | xs ->
      let n = List.length xs in
      let f = List.fold_left ( * ) 1 (List.init (n - 1) (fun i -> i + 1)) in
      let x = List.nth xs (k / f) in
      x :: pick (k mod f) (List.filter (fun y -> y <> x) xs)
  in
  pick k steps

(* Permuting the steps of a canonical all-reduce (of a group, or of the
   whole machine) either stays correct (a 2-chip group is symmetric; the
   all-chip row and column phases commute) or breaks it — and whenever the
   dynamic NOC-EXEC cross-check convicts the permuted plan, the static
   passes convict it too, and vice versa.  Static admission never waves
   through a plan that execution would reject. *)
let prop_permuted_steps_static_matches_exec =
  QCheck.Test.make
    ~name:"step-permuted all_reduce: static verdict == NOC-EXEC verdict"
    ~count:100
    QCheck.(triple group_arb bool (int_bound 23))
    (fun (shape, swap, perm) ->
      let group = group_of shape in
      let bytes = 1024 in
      let agree coll plan =
        let static_bad =
          errors_only
            (Static.deadlock ~subject:"p" coll plan
            @ Static.defuse ~subject:"p" coll plan)
          <> []
        in
        let exec_bad =
          errors_only (Noc_rules.execution ~subject:"p" coll plan) <> []
        in
        static_bad = exec_bad
      in
      let group_plan =
        match (Schedule.all_reduce ~group ~bytes, swap) with
        | [ s0; s1 ], true -> [ s1; s0 ]
        | plan, _ -> plan
      in
      agree (Schedule.All_reduce { group; bytes }) group_plan
      && agree
           (Schedule.All_chip_all_reduce { bytes })
           (permutation perm (Schedule.canonical (Schedule.All_chip_all_reduce { bytes }))))

let test_all_chip_all_reduce_clean () =
  let plan = Schedule.canonical (Schedule.All_chip_all_reduce { bytes = 8192 }) in
  let ds =
    Noc_rules.check ~subject:"p" (Schedule.All_chip_all_reduce { bytes = 8192 }) plan
  in
  Alcotest.(check int) "no errors" 0 (List.length (errors_only ds));
  Alcotest.(check int) "no warnings" 0 (Diagnostic.count Diagnostic.Warning ds);
  Alcotest.(check bool) "executed" true (Diagnostic.has_rule "NOC-EXEC" ds)

let test_broadcast_extra_transfer_into_root () =
  (* The reference broadcast gives the root nothing to receive and the
     peers nothing to send, so a peer writing back into the root moves
     bytes the collective never declared. *)
  let group = Topology.col_group 0 and bytes = 64 in
  let plan =
    match Schedule.canonical (Schedule.Broadcast { root = 0; group; bytes }) with
    | [ step ] -> [ step @ [ { Schedule.src = 4; dst = 0; bytes } ] ]
    | p -> p
  in
  let ds =
    errors_only
      (Noc_rules.conservation ~subject:"p"
         (Schedule.Broadcast { root = 0; group; bytes })
         plan)
  in
  Alcotest.(check int) "root receives and peer sends flagged" 2 (List.length ds)

let test_contention_rx_overmerge () =
  (* 7 distinct senders into chip 0: degree is 6. *)
  let senders = [ 1; 2; 3; 4; 8; 12 ] in
  let step = List.map (fun src -> { Schedule.src; dst = 0; bytes = 1 }) senders in
  Alcotest.(check int) "6 within degree" 0
    (List.length (Noc_rules.contention ~subject:"p" [ step ]));
  let overmerge = { Schedule.src = 5; dst = 0; bytes = 1 } :: step in
  (* Chip 5 is not connected to 0 (diagonal) — links rule would flag it,
     but contention independently counts the merge. *)
  Alcotest.(check bool) "7th stream flagged" true
    (Noc_rules.contention ~subject:"p" [ overmerge ] <> [])

(* --- Bundle round-trip --------------------------------------------------------- *)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* [f] exports into [name] under a fresh temporary directory, which is
   removed when [f] returns or raises. *)
let in_temp_dir name f =
  let tmp = Filename.temp_dir "hnlpu-test-" "" in
  Fun.protect ~finally:(fun () -> remove_tree tmp) (fun () -> f (Filename.concat tmp name))

let test_bundle_roundtrip () =
  in_temp_dir "bundle-roundtrip" @@ fun dir ->
  let written = Bundle.export ~dir reference in
  Alcotest.(check bool) "manifest + 32 chip files + plans + stage_map" true
    (List.length written >= 40);
  let d = Bundle.load dir in
  Alcotest.(check string) "config survives" reference.Signoff.config.Hnlpu_model.Config.name
    d.Signoff.config.Hnlpu_model.Config.name;
  Alcotest.(check bool) "chips survive" true
    (List.for_all2
       (fun (a : Signoff.chip_design) (b : Signoff.chip_design) ->
         a.Signoff.chip = b.Signoff.chip
         && a.Signoff.netlist = b.Signoff.netlist
         && a.Signoff.schematic = b.Signoff.schematic)
       reference.Signoff.chips d.Signoff.chips);
  Alcotest.(check bool) "plans survive in order" true
    (d.Signoff.plans = reference.Signoff.plans);
  Alcotest.(check bool) "stage map survives" true
    (d.Signoff.stage_map = reference.Signoff.stage_map);
  Alcotest.(check bool) "execution record survives" true
    (d.Signoff.execution = reference.Signoff.execution);
  (* Every diagnostic, Info included, as [hnlpu check --json] prints it,
     one per line: the reloaded design is clean exactly as the reference is. *)
  let lines ds = String.split_on_char '\n' (Diagnostic.to_json ds) in
  let expected = lines reference_diagnostics and got = lines (Signoff.check d) in
  Alcotest.(check int) "as many diagnostics after round-trip" (List.length expected)
    (List.length got);
  List.iter2 (Alcotest.(check string) "same diagnostic after round-trip") expected got

let test_bundle_seeded_violation_survives_disk () =
  in_temp_dir "bundle-noc-exec" @@ fun dir ->
  ignore (Bundle.export ~dir (Signoff.fixture "NOC-EXEC"));
  let ds = Signoff.check (Bundle.load dir) in
  Alcotest.(check bool) "NOC-EXEC fires from disk" true
    (Diagnostic.has_rule ~min_severity:Diagnostic.Error "NOC-EXEC" ds)

let test_bundle_det_lint_survives_disk () =
  (* The wall-clock seed is carried by the manifest's workload-seed key, so
     the determinism lint must convict the bundle after a disk round-trip. *)
  in_temp_dir "bundle-det-lint" @@ fun dir ->
  ignore (Bundle.export ~dir (Signoff.fixture "DET-LINT"));
  let ds = Signoff.check (Bundle.load dir) in
  Alcotest.(check bool) "DET-LINT fires from disk" true
    (Diagnostic.has_rule ~min_severity:Diagnostic.Error "DET-LINT" ds)

(* Replace one whole line of an exported plan file. *)
let edit_plan dir file ~from ~into =
  let path = Filename.concat (Filename.concat dir "plans") file in
  let lines =
    String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all)
  in
  Alcotest.(check bool) ("edits " ^ file) true (List.mem from lines);
  let lines = List.map (fun l -> if l = from then into else l) lines in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (String.concat "\n" lines))

let test_bundle_stray_transfer_is_error () =
  (* A plan transfer that leaves its group (chip 7 is not in column 1;
     chip 39 does not exist) used to crash signoff with Not_found. *)
  in_temp_dir "bundle-stray-transfer" @@ fun dir ->
  ignore (Bundle.export ~dir reference);
  let edit = edit_plan dir in
  edit "plan01-q.col1.plan" ~from:"5 -> 1 : 2048" ~into:"5 -> 7 : 2048";
  edit "plan03-q.col3.plan" ~from:"11 -> 3 : 2048" ~into:"11 -> 39 : 2048";
  let ds = Signoff.check (Bundle.load dir) in
  let exec_errors =
    List.filter (fun d -> d.Diagnostic.rule = "NOC-EXEC") (errors_only ds)
  in
  Alcotest.(check int) "one NOC-EXEC error per edited plan" 2
    (List.length exec_errors);
  Alcotest.(check bool) "the errors name the transfers" true
    (List.exists (fun d -> Thelp.contains d.Diagnostic.message "5 -> 7") exec_errors
    && List.exists (fun d -> Thelp.contains d.Diagnostic.message "11 -> 39") exec_errors);
  Alcotest.(check int) "exit 2" 2 (Diagnostic.exit_code ds)

let test_bundle_malformed_plans_are_errors () =
  (* Each edit used to crash signoff inside NOC-MAKESPAN with an unlocated
     Invalid_argument; each is now one NOC-BYTES Error naming the plan. *)
  List.iteri
    (fun i (file, subject, from, into, says) ->
      in_temp_dir (Printf.sprintf "bundle-malformed-%d" i) @@ fun dir ->
      ignore (Bundle.export ~dir reference);
      edit_plan dir file ~from ~into;
      let ds = Signoff.check (Bundle.load dir) in
      match errors_only ds with
      | [ d ] ->
        Alcotest.(check string) (into ^ ": rule") "NOC-BYTES" d.Diagnostic.rule;
        Alcotest.(check string) (into ^ ": subject") subject d.Diagnostic.subject;
        Alcotest.(check bool) (into ^ ": says " ^ says) true
          (Thelp.contains d.Diagnostic.message says);
        Alcotest.(check int) (into ^ ": exit 2") 2 (Diagnostic.exit_code ds)
      | ds -> Alcotest.failf "%s: expected one error, got %d" into (List.length ds))
    [
      ("plan04-k.col0.plan", "k.col0", "group 0 4 8 12", "group 0 4 8 16",
       "chip 16 is not on the fabric");
      ("plan04-k.col0.plan", "k.col0", "root 0", "root 5", "root 5 is not in the group");
      ("plan04-k.col0.plan", "k.col0", "4 -> 0 : 256", "4 -> 0 : -256",
       "negative payload (-256 B)");
      ("plan28-moe.all.plan", "moe.all", "4 -> 0 : 5760", "4 -> 0 : -1",
       "negative payload (-1 B)");
    ]

let test_bundle_missing_rejected () =
  Alcotest.(check bool) "missing directory rejected" true
    (try
       ignore (Bundle.load "no-such-bundle-dir");
       false
     with Failure _ -> true)

let test_bundle_bad_manifest_rejected () =
  in_temp_dir "bundle-bad-manifest" @@ fun dir ->
  ignore (Bundle.export ~dir reference);
  let oc = open_out (Filename.concat dir "manifest") in
  output_string oc "config = no-such-model\nclaimed-slots = 216\nmax-context = 65536\n";
  close_out oc;
  Alcotest.(check bool) "unknown config rejected with location" true
    (try
       ignore (Bundle.load dir);
       false
     with Failure msg -> Thelp.contains msg "manifest" && Thelp.contains msg "no-such-model")

(* --- System rules ------------------------------------------------------------- *)

let config = Hnlpu_model.Config.gpt_oss_120b

let test_stage_map_canonical () =
  let slots = System_rules.canonical_stage_map config in
  Alcotest.(check int) "216 slots" 216 (List.length slots);
  Alcotest.(check int) "clean" 0
    (List.length (errors_only (System_rules.pipeline_mapping ~subject:"p" config slots)))

let test_stage_map_gaps () =
  let slots = List.tl (System_rules.canonical_stage_map config) in
  Alcotest.(check bool) "unmapped stage flagged" true
    (errors_only (System_rules.pipeline_mapping ~subject:"p" config slots) <> [])

let test_stage_map_out_of_range () =
  let slots =
    { System_rules.layer = config.Hnlpu_model.Config.num_layers; stage = 0 }
    :: System_rules.canonical_stage_map config
  in
  Alcotest.(check bool) "range flagged" true
    (errors_only (System_rules.pipeline_mapping ~subject:"p" config slots) <> [])

let test_weight_partition_clean () =
  Alcotest.(check int) "tiles exactly" 0
    (List.length (errors_only (System_rules.weight_partition ~subject:"p" config)))

let test_weight_partition_unmappable () =
  let odd = { config with Hnlpu_model.Config.hidden = 2881; name = "odd" } in
  Alcotest.(check bool) "indivisible flagged" true
    (errors_only (System_rules.weight_partition ~subject:"p" odd) <> [])

let test_buffer_fits_64k () =
  match System_rules.buffer_budget ~subject:"b" config ~max_context:65536 with
  | [ d ] -> Alcotest.(check bool) "info" true (d.Diagnostic.severity = Diagnostic.Info)
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

let test_buffer_spill_warning () =
  (* 256K context spills to HBM but remains streamable (Figure 14 regime). *)
  let ds = System_rules.buffer_budget ~subject:"b" config ~max_context:262144 in
  Alcotest.(check bool) "warning, not error" true
    (List.for_all (fun d -> d.Diagnostic.severity <> Diagnostic.Error) ds
    && List.exists (fun d -> d.Diagnostic.severity = Diagnostic.Warning) ds)

let test_buffer_overflow_error () =
  let ds = System_rules.buffer_budget ~subject:"b" config ~max_context:(64 * 1024 * 1024) in
  Alcotest.(check bool) "error" true
    (List.exists (fun d -> d.Diagnostic.severity = Diagnostic.Error) ds)

let test_scheduler_slots () =
  Alcotest.(check int) "216 accepted" 0
    (List.length
       (errors_only
          (System_rules.scheduler_slots ~subject:"s" config ~claimed_slots:216)));
  Alcotest.(check bool) "mismatch flagged" true
    (errors_only (System_rules.scheduler_slots ~subject:"s" config ~claimed_slots:217)
    <> [])

(* --- Suite -------------------------------------------------------------------- *)

let fixture_cases =
  List.concat_map
    (fun rule ->
      [
        Alcotest.test_case (rule ^ " reference clean") `Quick (test_fixture_positive rule);
        Alcotest.test_case (rule ^ " fixture fires") `Quick (test_fixture rule);
      ])
    Signoff.rules

let suites =
  [
    ( "diagnostic",
      [
        Alcotest.test_case "exit codes" `Quick test_exit_codes;
        Alcotest.test_case "report" `Quick test_report_renders;
        Alcotest.test_case "json" `Quick test_json_renders;
        Alcotest.test_case "normalize dedupes and orders" `Quick
          test_normalize_dedupes_and_orders;
      ] );
    ( "reference",
      [
        Alcotest.test_case "signoff clean" `Quick test_reference_clean;
        Alcotest.test_case "checks the layer program" `Quick
          test_reference_checks_the_program;
        Alcotest.test_case "every family audited" `Quick
          test_reference_reports_every_family;
      ] );
    ( "fixtures",
      Alcotest.test_case "unknown rejected" `Quick test_unknown_fixture
      :: Alcotest.test_case "every rule has a fixture" `Quick
           test_rules_all_have_fixtures
      :: Alcotest.test_case "makespan fixture is a warning" `Quick
           test_makespan_fixture_is_warning
      :: Alcotest.test_case "defuse fixture conserves bytes" `Quick
           test_defuse_fixture_conserves_bytes
      :: Alcotest.test_case "exec fixture conserves bytes" `Quick
           test_exec_fixture_conserves_bytes
      :: fixture_cases );
    ( "bundle",
      [
        Alcotest.test_case "reference round-trips" `Quick test_bundle_roundtrip;
        Alcotest.test_case "seeded violation survives disk" `Quick
          test_bundle_seeded_violation_survives_disk;
        Alcotest.test_case "det lint survives disk" `Quick
          test_bundle_det_lint_survives_disk;
        Alcotest.test_case "stray transfer is an error" `Quick
          test_bundle_stray_transfer_is_error;
        Alcotest.test_case "malformed plans are errors" `Quick
          test_bundle_malformed_plans_are_errors;
        Alcotest.test_case "missing bundle rejected" `Quick
          test_bundle_missing_rejected;
        Alcotest.test_case "bad manifest rejected" `Quick
          test_bundle_bad_manifest_rejected;
      ] );
    ( "netlist rules",
      [
        Alcotest.test_case "congestion histogram" `Quick test_congestion_histogram;
        Alcotest.test_case "tight window" `Quick test_congestion_tight_window;
        Alcotest.test_case "lvs pinpoints cell" `Quick test_lvs_pinpoints_cell;
        Alcotest.test_case "mask uniformity ok" `Quick
          test_mask_uniformity_accepts_different_weights;
        Alcotest.test_case "mask shape drift" `Quick
          test_mask_uniformity_rejects_shape_drift;
      ] );
    ( "noc rules",
      [
        Alcotest.test_case "all-chip all-reduce clean" `Quick
          test_all_chip_all_reduce_clean;
        Alcotest.test_case "broadcast extra transfer into the root" `Quick
          test_broadcast_extra_transfer_into_root;
        Alcotest.test_case "rx overmerge" `Quick test_contention_rx_overmerge;
      ] );
    Thelp.qsuite "noc properties"
      [
        prop_all_reduce_verifies; prop_all_gather_verifies;
        prop_dropped_transfer_flagged; prop_wrong_link_flagged;
        prop_exec_passes_on_canonical; prop_exec_catches_swapped_src;
      ];
    ( "step engine",
      [
        Alcotest.test_case "value and symbolic runs agree" `Quick
          test_instances_agree;
      ] );
    ( "static rules",
      [
        Alcotest.test_case "deadlock cycle reported" `Quick
          test_deadlock_cycle_reported;
        Alcotest.test_case "chain is not a cycle" `Quick
          test_deadlock_chain_is_not_cycle;
        Alcotest.test_case "unwritten read" `Quick test_defuse_unwritten_read;
        Alcotest.test_case "double-overwrite race" `Quick
          test_defuse_double_overwrite_race;
        Alcotest.test_case "dead transfer warns" `Quick
          test_defuse_dead_transfer_warning;
        Alcotest.test_case "buffer liveness bands" `Quick test_buf_live_bands;
        Alcotest.test_case "determinism hazards" `Quick test_det_lint_hazards;
      ] );
    Thelp.qsuite "static properties"
      [
        prop_static_passes_canonical_generators;
        prop_permuted_steps_static_matches_exec;
      ];
    ( "system rules",
      [
        Alcotest.test_case "stage map canonical" `Quick test_stage_map_canonical;
        Alcotest.test_case "stage map gaps" `Quick test_stage_map_gaps;
        Alcotest.test_case "stage map range" `Quick test_stage_map_out_of_range;
        Alcotest.test_case "weight partition" `Quick test_weight_partition_clean;
        Alcotest.test_case "unmappable config" `Quick test_weight_partition_unmappable;
        Alcotest.test_case "buffer fits 64K" `Quick test_buffer_fits_64k;
        Alcotest.test_case "buffer spill 256K" `Quick test_buffer_spill_warning;
        Alcotest.test_case "buffer overflow" `Quick test_buffer_overflow_error;
        Alcotest.test_case "scheduler slots" `Quick test_scheduler_slots;
      ] );
  ]
