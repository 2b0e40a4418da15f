(* Shared helpers for the test suites. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  if nn = 0 then true
  else begin
    let rec go i =
      if i + nn > nh then false
      else if String.sub haystack i nn = needle then true
      else go (i + 1)
    in
    go 0
  end

let rng ?(seed = 0xC0FFEE) () = Hnlpu_util.Rng.create seed

(* [f ()] raises [Invalid_argument]: the rejection every validating entry
   point promises. *)
let raises f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

(* A group of QCheck properties, each one Alcotest case. *)
let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

(* [n] Poisson requests with geometric prompt/decode lengths, drawn from
   a seeded Arrivals cursor — the trace every serving test shares. *)
let chat_requests ~seed ~n ~rate_per_s ~mean_prefill ~mean_decode =
  let open Hnlpu_system in
  let spec =
    {
      (Arrivals.chat ~rate_per_s) with
      Arrivals.prefill = Arrivals.Geometric { mean = mean_prefill };
      decode = Arrivals.Geometric { mean = mean_decode };
    }
  in
  Scheduler.requests ~n (Arrivals.create ~seed spec)

(* Approximate float comparison.  [rel_error expected actual] is
   |actual - expected| / max(|expected|, eps), zero when both are zero. *)
let rel_error expected actual =
  if expected = 0.0 && actual = 0.0 then 0.0
  else Float.abs (actual -. expected) /. Float.max (Float.abs expected) epsilon_float

let close ?(rel = 1e-9) a b = rel_error a b <= rel

(* Relative error no more than [p] percent. *)
let within_pct p ~expected ~actual = rel_error expected actual <= p /. 100.0

(* --- Paper records ---------------------------------------------------------- *)

(* The rendered records table of one paper artifact ("Table 1"). *)
let artifact name = Hnlpu_util.Table.render (snd (Option.get (Hnlpu.Experiments.find name)))

(* Every [Hnlpu.Paper] record is checked against its own tolerance in a
   case of its own: [paper artifact row] claims one for a named case of
   the suite that covers it, and [paper_suite ()] gives every other one a
   case in the "paper" suite.  Claims happen as the suites are built, so
   the runner calls [paper_suite] after them. *)
let claimed = Hashtbl.create 64

let check_record (r : Hnlpu.Paper.t) =
  let x = List.hd (Hnlpu.Paper.measures [ r ]) in
  if not (Hnlpu.Paper.within r x) then
    Alcotest.failf "%s, %s: measured %s, outside the tolerance around the paper's %s" r.artifact r.row
      (r.show x) (Hnlpu.Paper.printed r)

let paper artifact row =
  let r = Hnlpu.Paper.find artifact row in
  if Hashtbl.mem claimed (artifact, row) then
    invalid_arg (Printf.sprintf "Thelp.paper: %s, %s claimed twice" artifact row);
  Hashtbl.add claimed (artifact, row) ();
  fun () -> check_record r

let paper_suite () =
  let slug a = String.lowercase_ascii (String.map (function ' ' -> '-' | c -> c) a) in
  List.fold_right
    (fun (r : Hnlpu.Paper.t) groups ->
      if Hashtbl.mem claimed (r.artifact, r.row) then groups
      else
        let case = Alcotest.test_case r.row `Quick (fun () -> check_record r) in
        match groups with
        | (g, cases) :: rest when g = slug r.artifact -> (g, case :: cases) :: rest
        | _ -> (slug r.artifact, [ case ]) :: groups)
    Hnlpu.Paper.all []

(* Run [f] with [HNLPU_DOMAINS] set to [value], then restore the old
   value; [putenv ""] restores unset semantics, since [Par.env_domains]
   treats a blank value as absent. *)
let with_env value f =
  let old = Sys.getenv_opt "HNLPU_DOMAINS" in
  Unix.putenv "HNLPU_DOMAINS" value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv "HNLPU_DOMAINS" (Option.value old ~default:""))
    f

(* Run [f] at process-wide pool width [j], the width every [Par]
   combinator resolves when no [?domains] is passed, and restore the old
   width afterwards.  The width goes through [HNLPU_DOMAINS]; a forced
   [Par.set_default_domains] would take precedence, so that is refused. *)
let with_domains j f =
  with_env (string_of_int j) (fun () ->
      if Hnlpu.Par.default_domains () <> j then
        failwith "Thelp.with_domains: a forced width overrides HNLPU_DOMAINS";
      f ())

(* A test file that its runner forgets compiles but never runs, and its
   cases vanish.  This case fails when [groups] hold fewer than [floor]
   cases: raise the floor with each case added, and lower it only with a
   CHANGES.md line naming each deleted case. *)
let case_floor floor groups =
  let n = List.fold_left (fun n (_, cases) -> n + List.length cases) 0 groups in
  Alcotest.test_case "case floor" `Quick (fun () ->
      if n < floor then Alcotest.failf "%d cases, below the floor of %d" n floor)
