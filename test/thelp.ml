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
