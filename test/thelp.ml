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

(* Relative error no more than [p] percent: the paper-number regression
   tests use the tolerance recorded in EXPERIMENTS.md. *)
let within_pct p ~expected ~actual = rel_error expected actual <= p /. 100.0

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
