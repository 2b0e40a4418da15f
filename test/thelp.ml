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
