(* Tests for the deterministic domain-parallel execution layer (Hnlpu.Par)
   and the scheduler hot-path optimizations that ride on it:

   - parallel_map/parallel_init agree with their sequential counterparts
     for every pool width (the determinism guarantee, property-tested);
   - whole sweeps (Slo.sweep, Ablation, Quant_eval) are bit-identical
     across domain counts, including merged telemetry;
   - Scheduler.simulate reads a slot-failure list as a step function of
     time, and stays within its words-per-token budget;
   - Slo.evaluate's single-pass percentile arrays match a recomputation. *)

open Hnlpu

let config = Config.gpt_oss_120b

let widths = [ 1; 2; 4; 8 ]

(* --- Par combinators ------------------------------------------------------ *)

let prop_parallel_map_is_map =
  QCheck.Test.make ~name:"parallel_map = List.map for j in {1,2,4,8}" ~count:30
    QCheck.(list (int_range (-1000) 1000))
    (fun xs ->
      let f x = (x * 31) + (x / 7) in
      let expect = List.map f xs in
      List.for_all (fun j -> Par.parallel_map ~domains:j f xs = expect) widths)

let prop_parallel_init_is_init =
  QCheck.Test.make ~name:"parallel_init = Array.init for j in {1,2,4,8}" ~count:30
    QCheck.(int_range 0 200)
    (fun n ->
      let f i = Printf.sprintf "%d:%d" i (i * i) in
      let expect = Array.init n f in
      List.for_all (fun j -> Par.parallel_init ~domains:j n f = expect) widths)

let test_seeded_tasks_deterministic () =
  (* Task [i] draws from [Rng.derive seed ~stream:i], never from a shared
     stream, so a seeded sweep is the same at every width. *)
  let f i =
    let rng = Rng.derive 99 ~stream:i in
    (i, Rng.float rng 1.0, Rng.int rng 1000)
  in
  let base = Par.parallel_init ~domains:1 17 f in
  List.iter
    (fun j ->
      Alcotest.(check bool)
        (Printf.sprintf "sweep identical at j=%d" j)
        true
        (Par.parallel_init ~domains:j 17 f = base))
    widths

exception Boom of int

let test_exception_propagates () =
  List.iter
    (fun j ->
      let raised =
        try
          ignore
            (Par.parallel_map ~domains:j
               (fun i -> if i mod 3 = 2 then raise (Boom i) else i)
               (List.init 12 Fun.id));
          None
        with Boom i -> Some i
      in
      (* Lowest-indexed failing task wins, regardless of completion order. *)
      Alcotest.(check (option int))
        (Printf.sprintf "first failure by index at j=%d" j)
        (Some 2) raised)
    widths

let test_nested_region_degrades () =
  (* A task that itself calls parallel_map must complete (sequentially)
     rather than deadlock the pool. *)
  let out =
    Par.parallel_map ~domains:4
      (fun i ->
        List.fold_left ( + ) 0
          (Par.parallel_map ~domains:4 (fun x -> x * i) [ 1; 2; 3 ]))
      (List.init 8 Fun.id)
  in
  Alcotest.(check (list int))
    "nested results" (List.init 8 (fun i -> 6 * i)) out

let test_default_domains_positive () =
  Alcotest.(check bool) "width >= 1" true (Par.default_domains () >= 1);
  Alcotest.(check bool) "j=0 rejected" true
    (try
       Par.set_default_domains 0;
       false
     with Invalid_argument _ -> true)

(* --- Rng.derive ----------------------------------------------------------- *)

let test_derive_independent_streams () =
  let draws seed stream =
    let rng = Rng.derive seed ~stream in
    List.init 8 (fun _ -> Rng.next_int64 rng)
  in
  Alcotest.(check bool) "same (seed, stream) reproduces" true
    (draws 7 3 = draws 7 3);
  Alcotest.(check bool) "streams differ" true (draws 7 0 <> draws 7 1);
  Alcotest.(check bool) "seeds differ" true (draws 7 0 <> draws 8 0);
  Alcotest.(check bool) "negative stream rejected" true
    (try
       ignore (Rng.derive 1 ~stream:(-1));
       false
     with Invalid_argument _ -> true)

(* --- Scheduler slot failures ------------------------------------------------ *)

let naive_capacity ~slots failures now =
  let lost =
    List.fold_left (fun acc (t, n) -> if t <= now then acc + n else acc) 0 failures
  in
  max 0 (slots - lost)

(* The naive fold's capacity profile as a failure list: one step at each
   distinct time, losing what [naive_capacity] drops there. *)
let naive_steps ~slots failures =
  List.sort_uniq Float.compare (List.map fst failures)
  |> List.fold_left
       (fun (before, acc) t ->
         let now = naive_capacity ~slots failures t in
         (now, (t, before - now) :: acc))
       (slots, [])
  |> snd |> List.rev

let failure_reqs =
  Thelp.chat_requests ~seed:11 ~n:60 ~rate_per_s:4000.0 ~mean_prefill:64
    ~mean_decode:32

let simulate_digest slot_failures =
  Marshal.to_string (Scheduler.simulate ~slot_failures config failure_reqs) []

let prop_capacity_profile_equiv =
  (* simulate reads a failure list as the capacity profile the naive fold
     gives: neither the list's order nor how a group of equal times is
     split up changes one bit of the result.  Times on a 1 ms grid over
     the run make tie groups common; at most 12 x 17 = 204 of the 216
     slots are lost, so the fold never clamps. *)
  let slots = Perf.pipeline_slots config in
  let gen =
    QCheck.make
      ~print:(fun fs ->
        String.concat ";" (List.map (fun (t, n) -> Printf.sprintf "(%g,%d)" t n) fs))
      QCheck.Gen.(
        list_size (int_range 0 12)
          (pair (map (fun ms -> 1e-3 *. float_of_int ms) (int_range 0 30))
             (int_range 0 17)))
  in
  QCheck.Test.make ~name:"capacity_profile = naive fold" ~count:200 gen
    (fun failures ->
      simulate_digest failures = simulate_digest (naive_steps ~slots failures))

let test_capacity_profile_ties () =
  (* Several failures at the same instant: the whole tie group counts, so
     [(2, 60); (1, 80); (2, 70)] ms is the profile [(1, 80); (2, 130)] ms,
     and not the one that keeps only the group's first member. *)
  let failures = [ (0.002, 60); (0.001, 80); (0.002, 70) ] in
  let d = simulate_digest failures in
  Alcotest.(check bool) "tie group merged" true
    (d = simulate_digest [ (0.001, 80); (0.002, 130) ]);
  Alcotest.(check bool) "whole group counts" false
    (d = simulate_digest [ (0.001, 80); (0.002, 60) ]);
  Alcotest.(check bool) "failures change the run" false (d = simulate_digest [])

let test_simulate_with_failures_unchanged () =
  (* The prefix-sum capacity must reproduce the fold-based simulator on a
     seeded failure workload, field for field. *)
  let reqs =
    Thelp.chat_requests ~seed:11 ~n:120 ~rate_per_s:4000.0 ~mean_prefill:64
      ~mean_decode:32
  in
  let failures = [ (0.02, 40); (0.05, 80); (0.02, 16) ] in
  let r = Scheduler.simulate ~slot_failures:failures config reqs in
  let naive = naive_capacity ~slots:(Perf.pipeline_slots config) failures in
  Alcotest.(check int) "no request lost" 120
    (List.length r.Scheduler.completed_requests);
  Alcotest.(check bool) "capacity shrank during run" true (naive 1.0 < 216);
  Alcotest.(check bool) "throughput positive" true
    (r.Scheduler.throughput_tokens_per_s > 0.0)

let test_simulate_words_per_token () =
  (* The event loop's allocation budget, below the knee and overloaded
     (50% and 120% of the 829 req/s where the chat mix saturates one
     node).  A wakeup storm — several pending wakeups per pipeline-entry
     time, each re-pushing itself — reads ~46 words/token below the knee.
     Gc.minor_words is exact for the calling domain; Gc.allocated_bytes
     also counts what another live domain's collections account late. *)
  List.iter
    (fun (label, load) ->
      let reqs =
        Scheduler.requests ~n:500
          (Arrivals.create ~seed:1 (Arrivals.chat ~rate_per_s:(load *. 829.0)))
      in
      let tokens =
        List.fold_left
          (fun a q -> a + q.Scheduler.prefill_tokens + q.Scheduler.decode_tokens)
          0 reqs
      in
      (* Warm the Perf latency cache so the budget covers the loop only. *)
      ignore (Scheduler.simulate config reqs);
      (* A full major first: no collection work an earlier suite left
         pending runs inside the window. *)
      Gc.full_major ();
      let w0 = Gc.minor_words () in
      ignore (Scheduler.simulate config reqs);
      let words = Gc.minor_words () -. w0 in
      let per_token = words /. float_of_int tokens in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.2f words/token <= 8" label per_token)
        true (per_token <= 8.0))
    [ ("below knee", 0.5); ("overload", 1.2) ]

(* --- Slo: single-pass evaluate and parallel sweep -------------------------- *)

let test_evaluate_single_pass_regression () =
  (* Recompute the latency series from the raw scheduler result and pin
     the evaluation to a locally fed sketch (byte-identical state ⇒
     identical quantile), then check the sketch answer stays within its
     documented bound of the exact percentile. *)
  let rate_per_s = 3000.0 in
  let reqs =
    Thelp.chat_requests ~seed:1234 ~n:150 ~rate_per_s ~mean_prefill:256 ~mean_decode:128
  in
  let r = Scheduler.simulate config reqs in
  let of_completed f = Array.of_list (List.map f r.Scheduler.completed_requests) in
  let ttft =
    of_completed (fun c ->
        c.Scheduler.first_token_s -. c.Scheduler.request.Scheduler.arrival_s)
  in
  let e2e =
    of_completed (fun c ->
        c.Scheduler.finish_s -. c.Scheduler.request.Scheduler.arrival_s)
  in
  let sketch_p95 xs =
    let sk = Obs.Sketch.create () in
    Array.iter (Obs.Sketch.observe sk) xs;
    Obs.Sketch.quantile sk 0.95
  in
  let e = Slo.evaluate config Slo.interactive ~rate_per_s in
  Alcotest.(check (float 0.0)) "ttft p95 = sketch" (sketch_p95 ttft) e.Slo.ttft_p95;
  Alcotest.(check (float 0.0)) "e2e p95 = sketch" (sketch_p95 e2e) e.Slo.e2e_p95;
  let within_bound name exact est =
    Alcotest.(check bool) name true
      (Float.abs (est -. exact)
      <= (Obs.Sketch.relative_error *. Float.abs exact) +. 1e-12)
  in
  within_bound "ttft p95 within bound" (Stats.percentile ttft 0.95) e.Slo.ttft_p95;
  within_bound "e2e p95 within bound" (Stats.percentile e2e 0.95) e.Slo.e2e_p95;
  Alcotest.(check (float 0.0)) "throughput exact" r.Scheduler.throughput_tokens_per_s
    e.Slo.throughput_tokens_per_s

let sweep_rates = [ 1000.0; 3000.0; 6000.0; 9000.0; 12000.0 ]

let test_slo_sweep_identical_across_widths () =
  let run j =
    Thelp.with_domains j (fun () ->
        Slo.sweep ~requests:40 config Slo.interactive ~rates:sweep_rates)
  in
  let base = run 1 in
  Alcotest.(check int) "one evaluation per rate" (List.length sweep_rates)
    (List.length base);
  List.iter
    (fun j ->
      Alcotest.(check bool)
        (Printf.sprintf "Slo.sweep identical at j=%d" j)
        true (run j = base))
    widths

let test_slo_sweep_matches_sequential_evaluate () =
  let base =
    List.map
      (fun rate_per_s -> Slo.evaluate ~requests:40 config Slo.interactive ~rate_per_s)
      sweep_rates
  in
  Alcotest.(check bool) "sweep = mapped evaluate" true
    (Thelp.with_domains 4 (fun () ->
         Slo.sweep ~requests:40 config Slo.interactive ~rates:sweep_rates)
    = base)

let test_slo_sweep_obs_merge_deterministic () =
  let run j =
    let obs = Obs.Sink.create () in
    Thelp.with_domains j (fun () ->
        ignore (Slo.sweep ~requests:30 ~obs config Slo.interactive ~rates:sweep_rates));
    (Obs.Sink.events obs, Obs.Metrics.to_json (Obs.Sink.metrics obs))
  in
  let events1, metrics1 = run 1 in
  let events4, metrics4 = run 4 in
  Alcotest.(check bool) "telemetry non-empty" true (events1 <> []);
  Alcotest.(check bool) "event timeline identical" true (events1 = events4);
  Alcotest.(check string) "metrics registry identical" metrics1 metrics4

(* --- Sweep determinism across the other parallelized modules --------------- *)

let test_ablation_sweeps_identical_across_widths () =
  let run j =
    Thelp.with_domains j (fun () ->
        ( Ablation.interconnect_sweep config,
          Ablation.precision_sweep config,
          Ablation.slack_sweep (Rng.create 5) ~trials:60 (),
          Ablation.speculative_sweep config ))
  in
  let interconnect, precision, slack, speculative = run 1 in
  List.iter
    (fun j ->
      let interconnect', precision', slack', speculative' = run j in
      Alcotest.(check bool)
        (Printf.sprintf "interconnect at j=%d" j)
        true (interconnect' = interconnect);
      Alcotest.(check bool)
        (Printf.sprintf "precision at j=%d" j)
        true (precision' = precision);
      Alcotest.(check bool)
        (Printf.sprintf "slack at j=%d" j)
        true (slack' = slack);
      Alcotest.(check bool)
        (Printf.sprintf "speculative at j=%d" j)
        true (speculative' = speculative))
    widths

let test_quant_eval_identical_across_widths () =
  let run j =
    Thelp.with_domains j (fun () ->
        Quant_eval.evaluate ~sequences:6 ~length:8 (Rng.create 3) Config.tiny_hnlpu)
  in
  let base = run 1 in
  Alcotest.(check bool) "scored tokens" true (base.Quant_eval.tokens_scored > 0);
  List.iter
    (fun j ->
      Alcotest.(check bool)
        (Printf.sprintf "quant report identical at j=%d" j)
        true (run j = base))
    widths

let test_scaling_and_tornado_identical_across_widths () =
  let run j = Thelp.with_domains j (fun () -> (Scaling.sweep (), Sensitivity.tornado ())) in
  let scaling_base, tornado_base = run 1 in
  List.iter
    (fun j ->
      let scaling, tornado = run j in
      Alcotest.(check bool)
        (Printf.sprintf "scaling at j=%d" j)
        true (scaling = scaling_base);
      Alcotest.(check bool)
        (Printf.sprintf "tornado at j=%d" j)
        true (tornado = tornado_base))
    widths

let test_experiments_identical_across_widths () =
  let base = Experiments.all ~domains:1 () in
  Alcotest.(check int) "nine artifacts" 9 (List.length base);
  Alcotest.(check bool) "tables identical at j=4" true
    (Experiments.all ~domains:4 () = base)

(* --- Obs merge primitives -------------------------------------------------- *)

let test_metrics_merge () =
  let a = Obs.Metrics.create () and b = Obs.Metrics.create () in
  Obs.Metrics.incr a "m/count" ~by:2.0;
  Obs.Metrics.incr b "m/count" ~by:3.0;
  Obs.Metrics.set b "m/gauge" 7.0;
  Obs.Metrics.observe a "m/hist" 1.0;
  Obs.Metrics.observe b "m/hist" 2.0;
  Obs.Metrics.observe b "m/hist" 3.0;
  Obs.Metrics.merge_into ~into:a b;
  Alcotest.(check (option (float 0.0))) "counters add" (Some 5.0)
    (Obs.Metrics.counter a "m/count");
  Alcotest.(check (option (float 0.0))) "gauge copied" (Some 7.0)
    (Obs.Metrics.gauge a "m/gauge");
  match Obs.Metrics.histogram a "m/hist" with
  | None -> Alcotest.fail "merged histogram missing"
  | Some h ->
    Alcotest.(check int) "hist count adds" 3 h.Obs.Metrics.count;
    Alcotest.(check (float 0.0)) "hist min" 1.0 h.Obs.Metrics.min_v;
    Alcotest.(check (float 0.0)) "hist max" 3.0 h.Obs.Metrics.max_v

let test_metrics_merge_kind_clash () =
  let a = Obs.Metrics.create () and b = Obs.Metrics.create () in
  Obs.Metrics.incr a "x";
  Obs.Metrics.set b "x" 1.0;
  Alcotest.(check bool) "kind clash raises" true
    (try
       Obs.Metrics.merge_into ~into:a b;
       false
     with Invalid_argument _ -> true)

let test_sink_merge_preserves_order () =
  let t = Obs.Event.track ~process:"p" ~thread:"t" in
  let a = Obs.Sink.create () and b = Obs.Sink.create () in
  Obs.Sink.instant a ~track:t ~name:"a1" ~ts_s:0.0;
  Obs.Sink.instant b ~track:t ~name:"b1" ~ts_s:1.0;
  Obs.Sink.instant b ~track:t ~name:"b2" ~ts_s:2.0;
  Obs.Sink.merge_into ~into:a b;
  let names =
    List.filter_map
      (function Obs.Event.Instant { name; _ } -> Some name | _ -> None)
      (Obs.Sink.events a)
  in
  Alcotest.(check (list string)) "b appended after a, in order"
    [ "a1"; "b1"; "b2" ] names

(* --- Pool lifecycle -------------------------------------------------------- *)

let wait_for ?(timeout_s = 10.0) pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () -. t0 > timeout_s then false
    else begin
      Unix.sleepf 0.005;
      go ()
    end
  in
  go ()

(* A pool refuses work once a resize (or process exit) has shut it down. *)
let refuses_work pool =
  try
    Par.run_tasks pool ~tasks:1 ignore;
    false
  with Invalid_argument _ -> true

let test_pool_identity_workers_visible () =
  (* Regression for the record-copy bug: [create] once returned
     [{ pool with workers }], so the workers held a record the caller
     never saw.  Here a task the caller runs waits until a worker has run
     one from the same region, which needs the workers to drain the
     caller's pool. *)
  let p = Par.shared ~domains:3 () in
  let caller = Domain.self () in
  let on_workers = Atomic.make 0 in
  let seen = Atomic.make true in
  Par.run_tasks p ~tasks:2 (fun _ ->
      if Domain.self () <> caller then Atomic.incr on_workers
      else if not (wait_for (fun () -> Atomic.get on_workers > 0)) then
        Atomic.set seen false);
  Alcotest.(check bool) "a worker ran a task of the caller's region" true
    (Atomic.get seen && Atomic.get on_workers > 0)

let test_shutdown_quiesces () =
  let p = Par.shared ~domains:4 () in
  let hits = Array.make 8 0 in
  Par.run_tasks p ~tasks:8 (fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check (array int)) "each task ran exactly once" (Array.make 8 1) hits;
  (* A resize joins the old pool's workers. *)
  let p2 = Par.shared ~domains:2 () in
  Alcotest.(check bool) "run_tasks on the old pool is rejected" true (refuses_work p);
  (* Resizing again shuts down only the live pool: the old one stays
     rejected and a width change back builds a fresh pool. *)
  let p4 = Par.shared ~domains:4 () in
  Alcotest.(check bool) "second resize joins the second pool" true (refuses_work p2);
  Alcotest.(check bool) "the first pool stays rejected" true (refuses_work p);
  Alcotest.(check bool) "a fresh pool at the old width" true (not (p4 == p));
  Par.run_tasks p4 ~tasks:8 (fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check (array int)) "the fresh pool runs tasks" (Array.make 8 2) hits

let test_shared_pool_persistence () =
  let p2 = Par.shared ~domains:2 () in
  let p2' = Par.shared ~domains:2 () in
  Alcotest.(check bool) "same width returns the physically same pool" true
    (p2 == p2');
  Alcotest.(check bool) "shared pool live" false (refuses_work p2);
  let p3 = Par.shared ~domains:3 () in
  Alcotest.(check bool) "width change builds a new pool" true (not (p3 == p2));
  Alcotest.(check bool) "old pool joined on resize" true (refuses_work p2);
  Alcotest.(check bool) "resized pool live" false (refuses_work p3);
  Alcotest.(check (list int)) "combinators work after resize" [ 2; 4; 6 ]
    (Par.parallel_map ~domains:3 (fun x -> x * 2) [ 1; 2; 3 ])

let test_catastrophe_propagates () =
  (* Worker tasks must not swallow runtime catastrophes: the historical
     [try f () with _ -> ()] in the worker loop turned these into silently
     missing results. *)
  List.iter
    (fun j ->
      Alcotest.(check bool)
        (Printf.sprintf "Out_of_memory surfaces at j=%d" j)
        true
        (try
           ignore
             (Par.parallel_map ~domains:j
                (fun i -> if i = 1 then raise Out_of_memory else i)
                [ 0; 1; 2; 3 ]);
           false
         with Out_of_memory -> true))
    widths

(* --- HNLPU_DOMAINS parsing -------------------------------------------------- *)

let rejects value =
  Thelp.with_env value (fun () ->
      (try
         ignore (Par.env_domains ());
         false
       with Invalid_argument _ -> true)
      &&
      try
        ignore (Par.default_domains ());
        false
      with Invalid_argument _ -> true)

let test_env_domains_malformed_rejected () =
  Alcotest.(check bool) "\"0\" rejected" true (rejects "0");
  Alcotest.(check bool) "\"four\" rejected" true (rejects "four");
  Alcotest.(check bool) "\"-2\" rejected" true (rejects "-2");
  Alcotest.(check bool) "\"2x\" rejected" true (rejects "2x")

let test_env_domains_valid_and_unset () =
  Thelp.with_env "3" (fun () ->
      Alcotest.(check (option int)) "\"3\" parsed" (Some 3) (Par.env_domains ()));
  Thelp.with_env " 4 " (fun () ->
      Alcotest.(check (option int)) "whitespace trimmed" (Some 4)
        (Par.env_domains ()));
  Thelp.with_env "" (fun () ->
      Alcotest.(check (option int)) "blank means unset" None (Par.env_domains ());
      Alcotest.(check bool) "default still resolves" true
        (Par.default_domains () >= 1))

(* --- Rng: unboxed representation is bit-exact ------------------------------- *)

(* The textbook boxed-[int64] SplitMix64, a record holding the state as
   an [int64] field, kept as the reference.  The production generator
   keeps its state in an 8-byte buffer so that no draw boxes, and must
   reproduce this one bit for bit, or every committed experiment table
   would silently shift. *)
module Ref_rng = struct
  type t = { mutable state : int64 }

  let golden_gamma = 0x9E3779B97F4A7C15L

  let create seed = { state = Int64.of_int seed }

  let copy t = { state = t.state }

  let mix z =
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let next_int64 t =
    t.state <- Int64.add t.state golden_gamma;
    mix t.state

  let split t =
    let seed = next_int64 t in
    { state = mix seed }

  let derive seed ~stream =
    let s =
      mix
        (Int64.add (Int64.of_int seed)
           (Int64.mul golden_gamma (Int64.of_int (stream + 1))))
    in
    { state = mix s }

  let int t bound =
    let mask =
      Int64.to_int (Int64.shift_right_logical (next_int64 t) 1) land max_int
    in
    mask mod bound

  let bits53 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11)

  let float t bound =
    let bits = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
    bits /. 9007199254740992.0 *. bound
end

let int_bounds = [| 1; 2; 7; 1000; 1 lsl 30; max_int |]
let float_bounds = [| 1.0; 1e-9; 2048.0 |]

(* A run of 10⁴ draws cycling through every draw operation. *)
let agree_for_draws rng ref_rng =
  let ok = ref true in
  for k = 0 to 9_999 do
    let same =
      match k mod 4 with
      | 0 -> Rng.next_int64 rng = Ref_rng.next_int64 ref_rng
      | 1 ->
        let b = int_bounds.(k / 4 mod Array.length int_bounds) in
        Rng.int rng b = Ref_rng.int ref_rng b
      | 2 ->
        let b = float_bounds.(k / 4 mod Array.length float_bounds) in
        Rng.float rng b = Ref_rng.float ref_rng b
      | _ -> Rng.bits53 rng = Ref_rng.bits53 ref_rng
    in
    if not same then ok := false
  done;
  !ok

let prop_rng_create_matches_reference =
  QCheck.Test.make ~name:"Rng.create bit-exact vs boxed-int64 reference" ~count:200
    QCheck.int
    (fun seed ->
      let a = Rng.create seed and b = Ref_rng.create seed in
      agree_for_draws a b
      &&
      (* A copy replays the original's stream without touching it. *)
      let ac = Rng.copy a and bc = Ref_rng.copy b in
      agree_for_draws ac bc
      && agree_for_draws a b
      &&
      (* Splitting must track too: both the child stream and the advanced
         parent stream. *)
      let a' = Rng.split a and b' = Ref_rng.split b in
      agree_for_draws a' b' && agree_for_draws a b)

let prop_rng_derive_matches_reference =
  QCheck.Test.make ~name:"Rng.derive bit-exact vs boxed-int64 reference" ~count:200
    QCheck.(pair int (int_range 0 1024))
    (fun (seed, stream) ->
      agree_for_draws (Rng.derive seed ~stream) (Ref_rng.derive seed ~stream))

(* The per-request draws allocate nothing.  Gc.minor_words is exact for
   the calling domain. *)
let minor_words_of f =
  (* A full major first: no collection work an earlier suite left
     pending runs inside the window. *)
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_draws_allocate_nothing () =
  let n = 100_000 in
  let rng = Rng.create 1 in
  let sink = ref 0 in
  let chat = Arrivals.chat ~rate_per_s:1000.0 in
  let cursor process decode =
    Arrivals.create ~seed:1 { chat with Arrivals.process; decode }
  in
  let pareto = Arrivals.Pareto { alpha = 1.5; xmin = 40.0; cap = 4096 } in
  let cur = Arrivals.create ~seed:1 chat in
  let diurnal =
    cursor
      (Arrivals.Diurnal { mean_rate_per_s = 1000.0; amplitude = 0.7; period_s = 2.0 })
      chat.Arrivals.decode
  in
  let mmpp =
    cursor (Arrivals.Mmpp { rates_per_s = [| 500.0; 2000.0; 1000.0 |]; mean_dwell_s = 0.5 }) pareto
  in
  let poisson_pareto = cursor chat.Arrivals.process pareto in
  List.iter
    (fun (name, f) ->
      let words = minor_words_of f in
      Alcotest.(check (float 0.0)) (Printf.sprintf "%s: minor words for %d calls" name n)
        0.0 words)
    [
      ("Rng.bits53", fun () -> for _ = 1 to n do sink := !sink lxor Rng.bits53 rng done);
      ("Rng.int", fun () -> for _ = 1 to n do sink := !sink lxor Rng.int rng 1000 done);
      ("Arrivals.next", fun () -> for _ = 1 to n do Arrivals.next cur done);
      ("Arrivals.next diurnal", fun () -> for _ = 1 to n do Arrivals.next diurnal done);
      ("Arrivals.next mmpp/pareto", fun () -> for _ = 1 to n do Arrivals.next mmpp done);
      ( "Arrivals.next poisson/pareto",
        fun () -> for _ = 1 to n do Arrivals.next poisson_pareto done );
    ];
  ignore !sink

(* --- Counters-only sinks ---------------------------------------------------- *)

let test_counters_only_sink () =
  let track = Obs.Event.track ~process:"p" ~thread:"t" in
  let s = Obs.Sink.create ~events:false () in
  Alcotest.(check bool) "events disabled" false (Obs.Sink.events_enabled s);
  Obs.Sink.instant s ~track ~name:"i" ~ts_s:0.0;
  Obs.Sink.span s ~track ~name:"sp" ~start_s:0.0 ~dur_s:1.0;
  Obs.Sink.sample s ~track ~name:"g" ~ts_s:0.5 3.5;
  Alcotest.(check int) "no events retained" 0 (List.length (Obs.Sink.events s));
  Alcotest.(check int) "no events recorded at all" 0 (Obs.Sink.recorded s);
  Alcotest.(check (option (float 0.0))) "sample still lands as a gauge"
    (Some 3.5)
    (Obs.Metrics.gauge (Obs.Sink.metrics s) "g");
  Alcotest.(check bool) "span validation still applies" true
    (try
       Obs.Sink.span s ~track ~name:"bad" ~start_s:0.0 ~dur_s:(-1.0);
       false
     with Invalid_argument _ -> true)

let test_slo_sweep_counters_only_metrics_match () =
  let run events =
    let obs = Obs.Sink.create ~events () in
    ignore
      (Thelp.with_domains 4 (fun () ->
           Slo.sweep ~requests:30 ~obs config Slo.interactive ~rates:sweep_rates));
    (Obs.Sink.events obs, Obs.Metrics.to_json (Obs.Sink.metrics obs))
  in
  let ev_full, m_full = run true in
  let ev_off, m_off = run false in
  Alcotest.(check bool) "full sink sees events" true (ev_full <> []);
  Alcotest.(check int) "counters-only sink sees none" 0 (List.length ev_off);
  Alcotest.(check string) "metrics registries identical" m_full m_off

(* --- Perf's memo ------------------------------------------------------------- *)

let test_latency_cache_agrees () =
  List.iter
    (fun context ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "cached = direct at %d" context)
        (Perf.token_latency_s config ~context)
        (Perf.token_latency_cached config ~context);
      List.iter
        (fun chunk ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "prefill cached = direct at chunk %d, context %d" chunk context)
            (Perf.prefill_throughput_tokens_per_s config ~chunk ~context)
            (Perf.prefill_throughput_cached config ~chunk ~context))
        [ 1; 8; 64; 8 ])
    [ 2048; 8192; 65536; 2048 ]

let qt t = QCheck_alcotest.to_alcotest t

let suites =
  [
    ( "par-combinators",
      [
        qt prop_parallel_map_is_map;
        qt prop_parallel_init_is_init;
        Alcotest.test_case "seeded tasks deterministic" `Quick
          test_seeded_tasks_deterministic;
        Alcotest.test_case "exception propagation" `Quick test_exception_propagates;
        Alcotest.test_case "nested regions" `Quick test_nested_region_degrades;
        Alcotest.test_case "default width" `Quick test_default_domains_positive;
      ] );
    ( "rng-derive",
      [ Alcotest.test_case "independent streams" `Quick test_derive_independent_streams ] );
    ( "scheduler-capacity",
      [
        qt prop_capacity_profile_equiv;
        Alcotest.test_case "tie groups" `Quick test_capacity_profile_ties;
        Alcotest.test_case "failure workload" `Quick
          test_simulate_with_failures_unchanged;
        Alcotest.test_case "words per token" `Quick test_simulate_words_per_token;
      ] );
    ( "slo",
      [
        Alcotest.test_case "single-pass regression" `Quick
          test_evaluate_single_pass_regression;
        Alcotest.test_case "sweep identical across widths" `Quick
          test_slo_sweep_identical_across_widths;
        Alcotest.test_case "sweep = mapped evaluate" `Quick
          test_slo_sweep_matches_sequential_evaluate;
        Alcotest.test_case "telemetry merge deterministic" `Quick
          test_slo_sweep_obs_merge_deterministic;
      ] );
    ( "sweep-determinism",
      [
        Alcotest.test_case "ablations" `Quick test_ablation_sweeps_identical_across_widths;
        Alcotest.test_case "quant-eval" `Quick test_quant_eval_identical_across_widths;
        Alcotest.test_case "scaling + tornado" `Quick
          test_scaling_and_tornado_identical_across_widths;
        Alcotest.test_case "experiments tables" `Quick
          test_experiments_identical_across_widths;
      ] );
    ( "pool-lifecycle",
      [
        Alcotest.test_case "pool identity (record-copy regression)" `Quick
          test_pool_identity_workers_visible;
        Alcotest.test_case "shutdown quiesces" `Quick test_shutdown_quiesces;
        Alcotest.test_case "shared pool persistence" `Quick
          test_shared_pool_persistence;
        Alcotest.test_case "catastrophes surface" `Quick test_catastrophe_propagates;
      ] );
    ( "env-width",
      [
        Alcotest.test_case "malformed HNLPU_DOMAINS rejected" `Quick
          test_env_domains_malformed_rejected;
        Alcotest.test_case "valid and unset values" `Quick
          test_env_domains_valid_and_unset;
      ] );
    ( "rng-exact",
      [
        qt prop_rng_create_matches_reference;
        qt prop_rng_derive_matches_reference;
        Alcotest.test_case "draws allocate nothing" `Quick test_draws_allocate_nothing;
      ] );
    ( "counters-only",
      [
        Alcotest.test_case "sink semantics" `Quick test_counters_only_sink;
        Alcotest.test_case "sweep metrics match" `Quick
          test_slo_sweep_counters_only_metrics_match;
      ] );
    ( "obs-merge",
      [
        Alcotest.test_case "metrics merge" `Quick test_metrics_merge;
        Alcotest.test_case "kind clash" `Quick test_metrics_merge_kind_clash;
        Alcotest.test_case "sink order" `Quick test_sink_merge_preserves_order;
      ] );
    ( "perf-cache",
      [ Alcotest.test_case "cached = direct" `Quick test_latency_cache_agrees ] );
  ]
