(* The test runner: every library's suite, one after another in this
   process.  Each suite is its own Alcotest run: a group name may recur
   across suites, and a case's printed line depends on its own suite
   only (Alcotest pads the name column to the run's longest group name
   and truncates descriptions to fit 80 columns).

     main.exe                                  every suite, then [runner]
     main.exe test <suite> [NAME_REGEX [CASES]] one suite
     main.exe list                             every suite's cases
     main.exe experiments DOC OUT              DOC with its generated
                                               tables refreshed, into OUT

   Any other Alcotest argument applies to every suite.  The lint suite
   is the separate test_lint executable. *)

(* Process-wide state a suite could leak into the ones after it: the
   [Par] pool width and [HNLPU_DOMAINS].  [Par] reads a blank variable
   as unset, and [Thelp.with_env] restores unset as blank. *)
let process_state () =
  let env =
    match Sys.getenv_opt "HNLPU_DOMAINS" with
    | Some s when String.trim s <> "" -> Some s
    | _ -> None
  in
  (Hnlpu.Par.default_domains (), env)

(* Read before the first suite runs. *)
let at_start = process_state ()

let suites =
  [
    ("util", Test_util.suites);
    ("fp4", Test_fp4.suites);
    ("gates", Test_gates.suites);
    ("neuron", Test_neuron.suites);
    ("tensor", Test_tensor.suites);
    ("model", Test_model.suites);
    ("litho", Test_litho.suites);
    ("compiler", Test_compiler.suites);
    ("noc", Test_noc.suites);
    ("chip", Test_chip.suites);
    ("system", Test_system.suites);
    ("arrivals", Test_arrivals.suites);
    ("window", Test_window.suites);
    ("fleet", Test_fleet.suites);
    ("baseline", Test_baseline.suites);
    ("tco", Test_tco.suites);
    ("obs", Test_obs.suites);
    ("verify", Test_verify.suites);
    ("integration", Test_integration.suites);
    ("par", Test_par.suites);
    (* After every suite above has claimed its paper records. *)
    ("paper", Thelp.paper_suite ());
  ]

(* Runs last: the floor counts every library suite's cases above. *)
let runner =
  [
    ( "runner",
      [
        Alcotest.test_case "Par width and HNLPU_DOMAINS as at start-up" `Quick (fun () ->
            let j0, env0 = at_start and j, env = process_state () in
            Alcotest.(check int) "Par.default_domains" j0 j;
            Alcotest.(check (option string)) "HNLPU_DOMAINS" env0 env);
        Thelp.case_floor 771 (List.concat_map snd suites);
      ] );
  ]

let suites = suites @ [ ("runner", runner) ]

let () =
  let failed = ref [] in
  let run argv (name, groups) =
    (try Alcotest.run ~and_exit:false ~argv name groups
     with Alcotest.Test_error -> failed := name :: !failed);
    (* [list] leaves its last line open; end it before the next suite. *)
    Format.printf "@."
  in
  (match Array.to_list Sys.argv with
  | [ _; "experiments"; doc; out ] ->
    let refreshed = Hnlpu.Experiments.refresh (In_channel.with_open_bin doc In_channel.input_all) in
    Out_channel.with_open_bin out (fun oc -> output_string oc refreshed)
  | exe :: "test" :: name :: rest when not (String.starts_with ~prefix:"-" name) -> (
    match List.assoc_opt name suites with
    | Some groups -> run (Array.of_list (exe :: "test" :: rest)) (name, groups)
    | None ->
      Printf.eprintf "main.exe: no suite %S; the suites are: %s\n" name
        (String.concat ", " (List.map fst suites));
      exit 124)
  | _ when Array.exists (String.starts_with ~prefix:"--help") Sys.argv ->
    (* Every suite takes the same options: print them once. *)
    run Sys.argv (List.hd suites)
  | _ -> List.iter (run Sys.argv) suites);
  if !failed <> [] then begin
    Printf.eprintf "failed suites: %s\n" (String.concat ", " (List.rev !failed));
    exit 1
  end
