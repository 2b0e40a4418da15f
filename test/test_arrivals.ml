(* Properties of the streaming trace generator: the empirical arrival
   rate matches the configured process, heavy-tail exponents are
   recoverable from the emitted lengths, a cursor restarted from the
   same seed replays the identical trace, and the substreams Fleet hands
   its shards superpose to the full-rate process. *)

open Hnlpu

let pull_n ?stream spec seed n =
  let c = Arrivals.create ?stream ~seed spec in
  Array.init n (fun _ ->
      Arrivals.next c;
      ( Arrivals.arrival_s c,
        Arrivals.prefill_tokens c,
        Arrivals.decode_tokens c,
        Arrivals.user c ))

let empirical_rate spec seed n =
  let c = Arrivals.create ~seed spec in
  for _ = 1 to n do
    Arrivals.next c
  done;
  float n /. Arrivals.arrival_s c

let geo = Arrivals.Geometric { mean = 64 }

(* Rate specs, tolerances and observation windows (in arrivals) sized so
   the window covers many diurnal periods / MMPP dwells — the long-run
   rate then concentrates. *)
let process_under_test = function
  | 0 -> (Arrivals.Poisson { rate_per_s = 50.0 }, 0.05, 20_000)
  | 1 ->
      (* 20k arrivals at mean 50/s span ~400 s = 50 periods. *)
      ( Arrivals.Diurnal
          { mean_rate_per_s = 50.0; amplitude = 0.8; period_s = 8.0 },
        0.07,
        20_000 )
  | _ ->
      (* States within 4x of each other.  The error is the spread of the
         time spent in each state: over seeds 1-1,500 its relative SD is
         4.8% at 20k arrivals (~170 dwells, 0.20 only 4.2 SD out) and
         2.3% at 80k (~690 dwells, 8.6 SD). *)
      ( Arrivals.Mmpp
          { rates_per_s = [| 25.0; 50.0; 100.0 |]; mean_dwell_s = 2.0 },
        0.20,
        80_000 )

let rate_within_tolerance kind seed =
  let process, tol, n = process_under_test kind in
  let spec = { (Arrivals.chat ~rate_per_s:1.0) with Arrivals.process } in
  let expected = Arrivals.mean_rate_per_s spec in
  let actual = empirical_rate spec seed n in
  abs_float (actual -. expected) /. expected < tol

let test_rate_matches_process =
  QCheck.Test.make ~name:"empirical rate ~ configured long-run rate" ~count:30
    QCheck.(pair (int_range 0 2) (int_range 1 10_000))
    (fun (kind, seed) -> rate_within_tolerance kind seed)

let test_mmpp_rate_pinned_seeds () =
  (* The seeds whose MMPP rate crossed 0.20 over a 20k-arrival window
     (0.201, 0.201 and 0.230): each time, the time-weighted state
     occupancy predicted the error and every state's own rate was on
     target, so the window was too short, not the generator wrong. *)
  List.iter
    (fun seed ->
      Alcotest.(check bool) (Printf.sprintf "MMPP seed %d" seed) true (rate_within_tolerance 2 seed))
    [ 3546; 9303; 9586 ]

let test_pareto_tail_recovered =
  (* Hill estimator over the top order statistics recovers alpha. *)
  QCheck.Test.make ~name:"Pareto tail index recovered (Hill)" ~count:10
    QCheck.(pair (float_range 1.2 2.5) (int_range 1 10_000))
    (fun (alpha, seed) ->
      let spec =
        {
          (Arrivals.chat ~rate_per_s:100.0) with
          Arrivals.decode = Arrivals.Pareto { alpha; xmin = 50.0; cap = 10_000_000 };
        }
      in
      let n = 30_000 in
      let draws = pull_n spec seed n in
      let xs = Array.map (fun (_, _, d, _) -> float d) draws in
      Array.sort (fun a b -> compare b a) xs;
      let k = 1500 in
      let xk = xs.(k) in
      let s = ref 0.0 in
      for i = 0 to k - 1 do
        s := !s +. log (xs.(i) /. xk)
      done;
      let hill = float k /. !s in
      abs_float (hill -. alpha) /. alpha < 0.25)

let test_restart_equals_fresh =
  QCheck.Test.make ~name:"cursor restart = fresh cursor, same seed" ~count:30
    QCheck.(pair (int_range 0 2) (int_range 1 10_000))
    (fun (kind, seed) ->
      let process, _, _ = process_under_test kind in
      let spec =
        {
          (Arrivals.chat ~rate_per_s:1.0) with
          Arrivals.process;
          Arrivals.prefill = Arrivals.Pareto { alpha = 1.5; xmin = 8.0; cap = 4096 };
        }
      in
      pull_n spec seed 500 = pull_n spec seed 500)

let test_arrivals_monotone =
  QCheck.Test.make ~name:"arrival times strictly nondecreasing" ~count:20
    QCheck.(pair (int_range 0 2) (int_range 1 10_000))
    (fun (kind, seed) ->
      let process, _, _ = process_under_test kind in
      let spec = { (Arrivals.chat ~rate_per_s:1.0) with Arrivals.process } in
      let tr = pull_n spec seed 2_000 in
      let ok = ref true in
      for i = 1 to Array.length tr - 1 do
        let t0, _, _, _ = tr.(i - 1) and t1, _, _, _ = tr.(i) in
        if t1 < t0 then ok := false
      done;
      !ok)

(* --- substreams ------------------------------------------------------------ *)

let diurnal =
  Arrivals.Diurnal { mean_rate_per_s = 50.0; amplitude = 0.8; period_s = 8.0 }

let test_default_stream_is_zero =
  QCheck.Test.make ~name:"create = create ~stream:0 (Poisson, Diurnal)" ~count:20
    QCheck.(pair (int_range 0 1) (int_range 1 10_000))
    (fun (kind, seed) ->
      let process, _, _ = process_under_test kind in
      let spec = { (Arrivals.chat ~rate_per_s:1.0) with Arrivals.process } in
      pull_n spec seed 300 = pull_n ~stream:0 spec seed 300)

(* Stream 0 keeps the single-trace generator bit for bit: the first
   requests of seed 42, pinned. *)
let test_stream0_pinned () =
  let check name process expected =
    let spec = { (Arrivals.chat ~rate_per_s:1.0) with Arrivals.process } in
    let got = Array.to_list (pull_n spec 42 3) in
    List.iter2
      (fun (t, p, d, u) (t', p', d', u') ->
        Alcotest.(check (float 0.0)) (name ^ " arrival") t t';
        Alcotest.(check (list int)) (name ^ " lengths, user") [ p; d; u ] [ p'; d'; u' ])
      expected got
  in
  check "poisson" (Arrivals.Poisson { rate_per_s = 50.0 })
    [
      (0x1.e486c6ddc97a3p-6, 62, 157, 8118);
      (0x1.ea6b0152d340ap-6, 302, 95, 2327);
      (0x1.6e8885b49e95ep-4, 30, 90, 2859);
    ];
  check "diurnal" diurnal
    [
      (0x1.0d2e6e7b370bp-6, 157, 118, 8182);
      (0x1.5d1c02fd98d04p-5, 25, 382, 3475);
      (0x1.9d05d07eabcf4p-5, 61, 377, 6491);
    ]

(* [s] substreams at [λ/s], merged, cut at the earliest stream end so no
   stream has run dry inside the window. *)
let superpose process ~streams ~per_stream seed =
  let spec = { (Arrivals.chat ~rate_per_s:1.0) with Arrivals.process } in
  let rate = Arrivals.mean_rate_per_s spec /. float streams in
  let sub = Arrivals.with_mean_rate spec rate in
  let traces =
    List.init streams (fun stream ->
        Array.map (fun (t, _, _, _) -> t) (pull_n ~stream sub seed per_stream))
  in
  let horizon =
    List.fold_left (fun h tr -> Float.min h tr.(per_stream - 1)) infinity traces
  in
  let merged = Array.concat traces in
  Array.sort compare merged;
  (horizon, List.filter (fun t -> t <= horizon) (Array.to_list merged))

let test_superposition_rate =
  QCheck.Test.make ~name:"s substreams at rate/s superpose to the rate" ~count:20
    QCheck.(triple (int_range 0 1) (int_range 2 8) (int_range 1 10_000))
    (fun (kind, streams, seed) ->
      let process, tol, n = process_under_test kind in
      let horizon, merged =
        superpose process ~streams ~per_stream:(n / streams) seed
      in
      let actual = float (List.length merged) /. horizon in
      abs_float (actual -. 50.0) /. 50.0 < tol)

let test_superposition_poisson_cv () =
  let _, merged =
    superpose (Arrivals.Poisson { rate_per_s = 50.0 }) ~streams:8
      ~per_stream:2_500 3
  in
  let ts = Array.of_list merged in
  let gaps = Array.init (Array.length ts - 1) (fun i -> ts.(i + 1) -. ts.(i)) in
  let n = float (Array.length gaps) in
  let mean = Array.fold_left ( +. ) 0.0 gaps /. n in
  let var =
    Array.fold_left (fun a g -> a +. ((g -. mean) ** 2.0)) 0.0 gaps /. n
  in
  let cv = sqrt var /. mean in
  Alcotest.(check bool)
    (Printf.sprintf "merged inter-arrival CV %.3f ~ 1" cv)
    true
    (abs_float (cv -. 1.0) < 0.05)

(* The chain state as a function of time, sampled at every arrival of a
   dense stream; a sparse stream's state is checked wherever the dense
   samples on both sides agree. *)
let mmpp_spec rate =
  {
    (Arrivals.chat ~rate_per_s:1.0) with
    Arrivals.process =
      Arrivals.Mmpp { rates_per_s = [| rate; 2.0 *. rate; 4.0 *. rate |]; mean_dwell_s = 0.5 };
  }

let states ?stream spec seed n =
  let c = Arrivals.create ?stream ~seed spec in
  Array.init n (fun _ ->
      Arrivals.next c;
      (Arrivals.arrival_s c, Arrivals.mmpp_state c))

(* (checked, disagreeing) sparse samples against the dense trace. *)
let chain_agreement dense sparse =
  let checked = ref 0 and bad = ref 0 and j = ref 0 in
  Array.iter
    (fun (t, s) ->
      while !j + 1 < Array.length dense && fst dense.(!j + 1) <= t do
        incr j
      done;
      if !j + 1 < Array.length dense && fst dense.(!j) <= t then begin
        let _, before = dense.(!j) and _, after = dense.(!j + 1) in
        if before = after then begin
          incr checked;
          if s <> before then incr bad
        end
      end)
    sparse;
  (!checked, !bad)

let test_mmpp_streams_share_chain () =
  let dense = states ~stream:1 (mmpp_spec 400.0) 5 40_000 in
  let sparse = states ~stream:2 (mmpp_spec 10.0) 5 500 in
  let checked, bad = chain_agreement dense sparse in
  Alcotest.(check bool) (Printf.sprintf "%d samples checked" checked) true (checked > 300);
  Alcotest.(check int) "same seed: same state at the same time" 0 bad;
  let other = states ~stream:2 (mmpp_spec 10.0) 6 500 in
  let checked, bad = chain_agreement dense other in
  Alcotest.(check bool)
    (Printf.sprintf "other seed: %d of %d samples disagree" bad checked)
    true
    (bad > checked / 4)

(* --- unit checks ---------------------------------------------------------- *)

let test_with_mean_rate () =
  List.iter
    (fun kind ->
      let process, _, _ = process_under_test kind in
      let spec = { (Arrivals.chat ~rate_per_s:1.0) with Arrivals.process } in
      let rescaled = Arrivals.with_mean_rate spec 123.0 in
      Alcotest.(check (float 1e-9))
        "rescaled long-run rate" 123.0
        (Arrivals.mean_rate_per_s rescaled))
    [ 0; 1; 2 ]

let test_mean_tokens () =
  Alcotest.(check (float 1e-9))
    "geometric mean" 64.0
    (Arrivals.mean_tokens geo);
  Alcotest.(check (float 1e-9))
    "pareto mean (alpha 2)" 100.0
    (Arrivals.mean_tokens (Arrivals.Pareto { alpha = 2.0; xmin = 50.0; cap = 100_000 }));
  Alcotest.(check bool)
    "pareto alpha <= 1 diverges" true
    (Arrivals.mean_tokens (Arrivals.Pareto { alpha = 1.0; xmin = 50.0; cap = 100 })
     = infinity)

let test_lengths_positive_and_capped () =
  let spec =
    {
      (Arrivals.chat ~rate_per_s:10.0) with
      Arrivals.decode = Arrivals.Pareto { alpha = 1.1; xmin = 1.0; cap = 500 };
      Arrivals.users = 7;
    }
  in
  let tr = pull_n spec 42 5_000 in
  Array.iter
    (fun (_, p, d, u) ->
      assert (p >= 1);
      assert (d >= 1 && d <= 500);
      assert (u >= 0 && u < 7))
    tr;
  Alcotest.(check pass) "lengths in range" () ()

let test_validation () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "rate <= 0" true
    (bad (fun () -> Arrivals.create ~seed:1 (Arrivals.chat ~rate_per_s:0.0)));
  Alcotest.(check bool) "amplitude >= 1" true
    (bad (fun () ->
         Arrivals.create ~seed:1
           {
             (Arrivals.chat ~rate_per_s:1.0) with
             Arrivals.process =
               Arrivals.Diurnal
                 { mean_rate_per_s = 1.0; amplitude = 1.0; period_s = 10.0 };
           }));
  Alcotest.(check bool) "empty MMPP" true
    (bad (fun () ->
         Arrivals.create ~seed:1
           {
             (Arrivals.chat ~rate_per_s:1.0) with
             Arrivals.process =
               Arrivals.Mmpp { rates_per_s = [||]; mean_dwell_s = 1.0 };
           }));
  Alcotest.(check bool) "users < 1" true
    (bad (fun () ->
         Arrivals.create ~seed:1 { (Arrivals.chat ~rate_per_s:1.0) with Arrivals.users = 0 }));
  Alcotest.(check bool) "pareto alpha <= 0" true
    (bad (fun () ->
         Arrivals.create ~seed:1
           {
             (Arrivals.chat ~rate_per_s:1.0) with
             Arrivals.prefill = Arrivals.Pareto { alpha = 0.0; xmin = 1.0; cap = 10 };
           }))

let () =
  Alcotest.run "hnlpu_arrivals"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            test_rate_matches_process;
            test_pareto_tail_recovered;
            test_restart_equals_fresh;
            test_arrivals_monotone;
            test_default_stream_is_zero;
            test_superposition_rate;
          ] );
      ( "substreams",
        [
          Alcotest.test_case "stream 0 pinned" `Quick test_stream0_pinned;
          Alcotest.test_case "merged Poisson CV" `Quick test_superposition_poisson_cv;
          Alcotest.test_case "MMPP chain shared per seed" `Quick
            test_mmpp_streams_share_chain;
        ] );
      ( "units",
        [
          Alcotest.test_case "MMPP rate at pinned seeds" `Quick test_mmpp_rate_pinned_seeds;
          Alcotest.test_case "with_mean_rate" `Quick test_with_mean_rate;
          Alcotest.test_case "mean_tokens" `Quick test_mean_tokens;
          Alcotest.test_case "length ranges" `Quick test_lengths_positive_and_capped;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
    ]
