(* The repository's benchmark: four named workloads from fleet routing
   down to the FP4 GEMV, timed from outside through the [Hnlpu] facade.

     dune exec --root . ./hnbench/main.exe -- \
       --workload fleet-chat-ll --seed 1 --seconds 30 --trace 0

   [--trace 0] prints the end-to-end metrics (host time, tracing off);
   [--trace 1] runs every layer once more under host-time spans, writes a
   Chrome trace to hnbench/out/ and prints the per-layer metrics.  The last
   line of standard output is always the one-line JSON result.
   [--self-check] runs every workload, check and layer probe at a tiny
   size and proves that a corrupted output counts as a failure.  NOTES.md
   gives each workload's reason. *)

module M = Measure
module W = Workloads
module J = Hnlpu.Obs.Json

(* The timed phase runs rounds until [--seconds] have passed, and at
   least this many.  A round times one set-up batch, then one iteration
   on the instance it built, so that [setup_s] samples the same stretch
   of host time as [wall_s] and a change which moves work into set-up
   shows in it. *)
let min_rounds = 5

(* (mean seconds per set-up over the workload's fixed batch, the last
   instance built).  The batch starts from a collected heap, so that no
   major slice on the previous iteration's garbage lands in it. *)
let time_setup (w : W.t) f =
  let n = w.W.setup_repeats in
  Gc.full_major ();
  let t0 = M.now () in
  let rec go k =
    let inst = f () in
    if k >= n then inst else go (k + 1)
  in
  let inst = go 1 in
  ((M.now () -. t0) /. float_of_int n, inst)

let warm_pool () =
  let j = W.fleet_domains () in
  if j > 1 then Hnlpu.Par.run_tasks (Hnlpu.Par.shared ~domains:j ()) ~tasks:(2 * j) ignore

let metric (name, value, unit) =
  (name, Printf.sprintf "{\"value\": %.17g, \"unit\": %s}" value (J.string unit))

let result (c : M.checks) metrics =
  J.obj
    [
      ("correct", J.bool (c.M.failed = 0));
      ("attempted", J.int c.M.attempted);
      ("failed", J.int c.M.failed);
      ("metrics", J.obj (List.map metric metrics));
    ]

let report ~workload ~seed ~width (c : M.checks) fields =
  J.obj
    ([
       ("workload", J.string workload);
       ("seed", J.int seed);
       ("provenance", M.provenance ~width);
       ("fail_ratio", J.number (float_of_int c.M.failed /. float_of_int (max 1 c.M.attempted)));
       ("failed_checks", J.arr (List.rev_map J.string c.M.failures));
     ]
    @ fields)

(* One timed iteration: (wall seconds, process CPU seconds).  Every
   iteration starts from a collected heap, so none pays for the garbage of
   the one before and the heap's peak does not creep with their number. *)
let time_iter (inst : W.instance) tr =
  Gc.full_major ();
  let c0 = M.cpu () in
  let t0 = M.now () in
  inst.W.iter tr;
  (M.now () -. t0, M.cpu () -. c0)

(* --- End-to-end run (tracing off) ---------------------------------------------- *)

let run_end_to_end (w : W.t) ~seed ~seconds =
  let width = M.effective_width () in
  let checks = M.checks () in
  (* Every timed call is sequential, so no worker domain exists until the
     closing checks.  With an idle worker, every minor collection is a
     stop-the-world that must wake it: set-up read 2-4x slower and
     jittered. *)
  let deadline = M.now () +. seconds in
  (* Only the latest instance stays live, so the heap holds one set of
     inputs however many rounds run. *)
  let last = ref None in
  let rec rounds n acc =
    if n >= min_rounds && M.now () >= deadline then acc
    else begin
      last := None;
      let setup_s, inst = time_setup w (w.W.setup checks ~tiny:false ~seed) in
      last := Some inst;
      let wall_s, cpu_s = time_iter inst None in
      rounds (n + 1) ((setup_s, wall_s, cpu_s) :: acc)
    end
  in
  let samples = rounds 0 [] in
  let median f = M.median (List.map f samples) in
  (* Read before [finish]: its checks (a j=N replay, two marshalled
     results) are the benchmark's cost, not the workload's. *)
  let peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let outputs = (Option.get !last).W.finish () in
  print_endline
    (report ~workload:w.W.name ~seed ~width checks
       [
         ("iterations", J.int (List.length samples));
         ("simulated", J.obj outputs);
       ]);
  print_endline
    (result checks
       [
         ("wall_s", median (fun (_, w, _) -> w), "s");
         ("cpu_s", median (fun (_, _, c) -> c), "s");
         ("setup_s", median (fun (s, _, _) -> s), "s");
         ("peak_heap_words", float_of_int peak_heap_words, "words");
       ])

(* --- Traced run (per-layer metrics) ---------------------------------------------- *)

let layer_metrics tr ~width ~telemetry_words ~trace_overhead =
  let per name = M.per_unit tr name in
  let ns name = fst (per name) *. 1e9 in
  let words name = snd (per name) in
  let ratio a b = fst (per a) /. fst (per b) in
  let counter name =
    Option.value ~default:nan (Hnlpu.Obs.Metrics.counter (Hnlpu.Obs.Sink.metrics tr.M.sink) name)
  in
  [
    ("arrivals.ns_per_next", ns "arrivals.next", "ns");
    ("arrivals.words_per_next", words "arrivals.next", "words");
    ("fleet.ns_per_request", ns "fleet.chat.run", "ns");
    ("fleet.words_per_request", words "fleet.chat.run", "words");
    ("fleet.replay_ratio", ratio "fleet.chat.run" "fleet.chat.shards1", "ratio");
    ("fleet.pa_over_ll", ratio "fleet.burst.run" "fleet.burst.ll", "ratio");
    ("par.effective_width", width, "domains");
    ("par.speedup", ratio "fleet.chat.run" "fleet.chat.jN", "ratio");
    ("obs.overhead_ratio", ratio "fleet.chat.obs" "fleet.chat.run", "ratio");
    ("obs.telemetry_words", float_of_int telemetry_words, "words");
    ("scheduler.ns_per_token.below_knee", ns "scheduler.simulate.below_knee", "ns");
    ("scheduler.ns_per_token.overload", ns "scheduler.simulate.overload", "ns");
    ("scheduler.words_per_token.below_knee", words "scheduler.simulate.below_knee", "words");
    ("scheduler.words_per_token.overload", words "scheduler.simulate.overload", "words");
    ("neuron.me.ns_per_gemv", ns "neuron.me.gemv", "ns");
    ("neuron.ce.ns_per_gemv", ns "neuron.ce.gemv", "ns");
    ("neuron.ma.ns_per_gemv", ns "neuron.ma.gemv", "ns");
    ("neuron.me.words_per_gemv", words "neuron.me.gemv", "words");
    ("neuron.ce.words_per_gemv", words "neuron.ce.gemv", "words");
    ("neuron.ma.words_per_gemv", words "neuron.ma.gemv", "words");
    ("neuron.me.build_s", fst (per "neuron.me.build"), "s");
    ("fp4.quantize_ns_per_elem", ns "fp4.quantize", "ns");
    ("model.ns_per_token", ns "model.forward", "ns");
    ("dataflow.ns_per_token", ns "dataflow.forward", "ns");
    ("dataflow.words_per_token", words "dataflow.forward", "words");
    ( "dataflow.collectives_per_token",
      counter "dataflow/collectives" /. counter "dataflow/tokens",
      "count" );
    ("noc.all_reduce_ns", ns "noc.all_reduce", "ns");
    ("signoff.check_s", fst (per "signoff.check"), "s");
    ("experiments.all_s", fst (per "experiments.all"), "s");
    ("trace.ns_per_token", ns "trace.run", "ns");
    ("bench.trace_overhead", trace_overhead, "ratio");
  ]

let trace_dir = Filename.concat "hnbench" "out"

let write_trace tr ~workload ~seed =
  if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
  let path = Filename.concat trace_dir (Printf.sprintf "%s-seed%d.trace.json" workload seed) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Hnlpu.Obs.Chrome_trace.to_json (Hnlpu.Obs.Sink.events tr.M.sink)));
  path

(* Runs every workload's iteration once under spans, the chosen one
   first, then the chosen one in untraced/traced pairs for [seconds],
   which gives the tracing overhead, then the layer probes; returns the
   per-layer metrics.  Each pair's iterations run on instances of their
   own, as the end-to-end rounds do. *)
let traced_pass (w : W.t) checks tr ~tiny ~seed ~seconds ~width =
  let instances =
    List.map (fun (x : W.t) -> (x.W.name, x.W.setup checks ~tr ~tiny ~seed ()))
      (w :: List.filter (fun (x : W.t) -> x.W.name <> w.W.name) W.all)
  in
  List.iter (fun (_, (i : W.instance)) -> i.W.iter (Some tr)) instances;
  let deadline = M.now () +. seconds in
  let rec pairs n acc =
    if n >= 1 && M.now () >= deadline then acc
    else begin
      let plain, _ = time_iter (w.W.setup checks ~tiny ~seed ()) None in
      let traced, _ = time_iter (w.W.setup checks ~tiny ~seed ()) (Some tr) in
      pairs (n + 1) ((traced /. plain) :: acc)
    end
  in
  let trace_overhead = M.median (pairs 0 []) in
  (* The pool is started only now, so that its idle worker slows neither
     set-up nor the sequential iterations, and the probe's j=N leg does
     not pay for spawning it. *)
  warm_pool ();
  let telemetry_words = W.layer_probes checks tr ~tiny ~seed in
  let outputs = List.map (fun (name, (i : W.instance)) -> (name, J.obj (i.W.finish ()))) instances in
  (layer_metrics tr ~width ~telemetry_words ~trace_overhead, outputs)

let run_traced (w : W.t) ~seed ~seconds =
  let width = M.effective_width () in
  let checks = M.checks () in
  let tr = M.tracer ~workload:w.W.name ~seed in
  let metrics, outputs = traced_pass w checks tr ~tiny:false ~seed ~seconds ~width in
  let path = write_trace tr ~workload:w.W.name ~seed in
  print_endline
    (report ~workload:w.W.name ~seed ~width checks
       [ ("chrome_trace", J.string path); ("simulated", J.obj outputs) ]);
  print_endline (result checks metrics)

(* --- Self-check ------------------------------------------------------------------ *)

let self_check () =
  let width = M.effective_width () in
  let checks = M.checks () in
  let w = List.hd W.all in
  let tr = M.tracer ~workload:"self-check" ~seed:1 in
  let metrics, _ = traced_pass w checks tr ~tiny:true ~seed:1 ~seconds:0.0 ~width in
  let missing = List.filter (fun (_, v, _) -> not (Float.is_finite v)) metrics in
  let events = Hnlpu.Obs.Sink.events tr.M.sink in
  let corrupted = M.checks () in
  W.corrupt_outputs corrupted;
  let ok =
    checks.M.failed = 0
    && checks.M.attempted > 0
    && missing = []
    && events <> []
    && String.length (Hnlpu.Obs.Chrome_trace.to_json events) > 0
    && corrupted.M.attempted > 0
    && corrupted.M.failed = corrupted.M.attempted
  in
  Printf.printf
    "self-check: %d checks, %d failed; %d per-layer metrics, %d non-finite; %d spans; %d/%d \
     corrupted outputs counted as failures\n"
    checks.M.attempted checks.M.failed (List.length metrics) (List.length missing)
    (List.length events) corrupted.M.failed corrupted.M.attempted;
  List.iter (fun f -> Printf.printf "  failed: %s\n" f) (List.rev checks.M.failures);
  List.iter (fun (n, _, _) -> Printf.printf "  non-finite: %s\n" n) missing;
  if not ok then exit 1

(* --- Command line ---------------------------------------------------------------- *)

let usage () =
  prerr_endline
    ("usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     \       main.exe --self-check\n\
      workloads: "
    ^ String.concat ", " (List.map (fun (w : W.t) -> w.W.name) W.all));
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [ "--self-check" ] then self_check ()
  else begin
    let rec parse acc = function
      | [] -> acc
      | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((key, value) :: acc) rest
      | _ -> usage ()
    in
    let opts = parse [] args in
    let known = [ "--workload"; "--seed"; "--seconds"; "--trace" ] in
    if List.exists (fun (key, _) -> not (List.mem key known)) opts then usage ();
    let get key conv default =
      match List.assoc_opt key opts with
      | None -> default
      | Some v -> ( match conv v with Some x -> x | None -> usage ())
    in
    let workload =
      match Option.bind (List.assoc_opt "--workload" opts) W.find with
      | Some w -> w
      | None -> usage ()
    in
    let seed = get "--seed" int_of_string_opt 1 in
    let seconds = get "--seconds" float_of_string_opt 10.0 in
    match get "--trace" int_of_string_opt 0 with
    | 0 -> run_end_to_end workload ~seed ~seconds
    | 1 -> run_traced workload ~seed ~seconds
    | _ -> usage ()
  end
