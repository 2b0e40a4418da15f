(* Configuration for the source-level lint engine.

   The hot-path set names the code whose inner loops PR 6 hand-optimized
   to be allocation-free, because OCaml 5's stop-the-world minor GC turns
   any allocation on a sweep hot path into a fleet-wide synchronization
   point.  ALLOC-HOT enforces that property going forward.

   Entries are dotted path prefixes over normalized module paths
   ("Library.Module" or "Library.Module.function"): a binding is hot when
   its qualified path extends one of these prefixes, so nested helpers of
   a hot function (e.g. [Scheduler.simulate]'s internal loops) are hot
   too.  Code can opt out of specific rules with
   [[@@hnlpu.lint_ignore "RULE ..."]] — see the README's Source lint
   section.  An entry that names no binding in a scanned library is a
   LINT-HOTPATH error (see {!Lint.stale_hot_paths}). *)

(* Two grades of hot code:

   - [Leaf]: small per-event operations (Rng draws, event-queue ops).
     Callers invoke them inside their event loops, so every allocation
     in the body is a per-event allocation — all of them are errors.
   - [Driver]: large entry points ([Scheduler.simulate],
     [Slo.evaluate]) that run a long event loop after a once-per-call
     setup prologue.  Allocation in the prologue is O(1) per call and
     merely informational; allocation inside a loop body or an inner
     function (the event handlers the loop dispatches to) is O(events)
     and an error. *)
type hot_kind = Leaf | Driver

type t = {
  hot_paths : (string * hot_kind) list;
      (* ALLOC-HOT scope: dotted-path prefixes *)
}

let default_hot_paths =
  [
    ("Hnlpu_util.Rng", Leaf);
    ("Hnlpu_util.Stats.percentile_in_place", Leaf);
    (* Telemetry per-event entry points: once a series exists, recording
       into it must allocate nothing, or instrumented runs lose the
       parallel scaling PR 6 bought.  The cold registration/append paths
       are separately named ([observe_slow], [incr_slow], ...) so the
       component-wise prefix match leaves them out. *)
    ("Hnlpu_obs.Sketch.observe", Leaf);
    ("Hnlpu_obs.Sketch.observe_cell", Leaf);
    ("Hnlpu_obs.Sketch.observe_body", Leaf);
    ("Hnlpu_obs.Sketch.bump", Leaf);
    ("Hnlpu_obs.Sketch.bucket_index", Leaf);
    ("Hnlpu_obs.Metrics.observe", Leaf);
    ("Hnlpu_obs.Metrics.incr", Leaf);
    ("Hnlpu_obs.Metrics.set_stamped", Leaf);
    (* The Scheduler's private event streams and request-id rings: one
       push and one pop per simulated token. *)
    ("Hnlpu_system.Scheduler.Stream", Leaf);
    ("Hnlpu_system.Scheduler.Ring", Leaf);
    ("Hnlpu_system.Scheduler.simulate", Driver);
    ("Hnlpu_system.Slo.evaluate", Driver);
    (* Fleet-scale serving: the trace cursor and the dispatch fast path
       run once per simulated request at 10⁶-10⁷ requests per run.  The
       [Fleet.Hot] submodule is the entire per-request path (heap sifts,
       routing, assignment, power tracking); [run_shard] is the driver
       loop around it, and [Arrivals.next] with its emit/draw helpers is
       the generator side. *)
    ("Hnlpu_system.Arrivals.next", Leaf);
    ("Hnlpu_system.Arrivals.unit_draw", Leaf);
    ("Hnlpu_system.Arrivals.exp_draw", Leaf);
    ("Hnlpu_system.Arrivals.draw_tokens", Leaf);
    ("Hnlpu_system.Arrivals.emit_diurnal", Leaf);
    ("Hnlpu_system.Arrivals.emit_mmpp", Leaf);
    ("Hnlpu_system.Fleet.Hot", Leaf);
    ("Hnlpu_system.Fleet.hash_user", Leaf);
    ("Hnlpu_system.Fleet.apply_event", Leaf);
    ("Hnlpu_system.Fleet.route_redispatch", Leaf);
    ("Hnlpu_system.Fleet.run_shard", Driver);
    (* Operator machines: ME's word loop and the E2M1 half-unit
       lookup run once per word and per MAC; the reference, ME, CE and
       MA GEMVs are drivers whose per-plane, per-neuron, per-row and
       per-tile loops allocate nothing while reading the weight bytes
       (ns and words per GEMV are on hnbench's datapath). *)
    ("Hnlpu_fp4.Bitserial.popcount", Leaf);
    ("Hnlpu_fp4.Bitserial.signed_digit", Leaf);
    ("Hnlpu_fp4.Bitserial.masked_dot", Leaf);
    ("Hnlpu_fp4.Bitserial.masked_dot_from", Leaf);
    ("Hnlpu_fp4.Fp4.to_half_units", Leaf);
    ("Hnlpu_neuron.Gemv.reference", Driver);
    ("Hnlpu_neuron.Metal_embedding.run", Driver);
    ("Hnlpu_neuron.Cell_embedding.run", Driver);
    ("Hnlpu_neuron.Mac_array.run", Driver);
    (* Model and dataflow forward: each kernel allocates its result in
       the prologue, then runs loops that allocate nothing — the GEMV's
       column blocks, the streaming-softmax pass over a GQA group's K/V
       slab (its caller's normalisation too), and the MXFP4 element
       loops: the amax scan and the byte-writing quantizer per block, the
       decode per block. *)
    ("Hnlpu_model.Attention.pass", Driver);
    ("Hnlpu_tensor.Mat.gemv", Driver);
    ("Hnlpu_tensor.Mat.gemv_into", Driver);
    ("Hnlpu_model.Transformer.attention", Driver);
    ("Hnlpu_system.Dataflow.column_attention", Driver);
    ("Hnlpu_fp4.Fp4.quantize_slice", Driver);
    ("Hnlpu_fp4.Blockscale.quantize_slice", Driver);
    ("Hnlpu_fp4.Blockscale.dequantize_into", Leaf);
  ]

let default = { hot_paths = default_hot_paths }

(* The rule families: four mirror the bug classes first found by hand
   in the scheduler, pool, and sweep layers; DEAD-EXPORT keeps every
   export and every optional parameter in use. *)
let rules = [ "ALLOC-HOT"; "DET-SRC"; "PAR-ESCAPE"; "EXN-SWALLOW"; "DEAD-EXPORT" ]

let describe = function
  | "ALLOC-HOT" ->
    "allocating construct (closure, tuple, record, list, escaping int64, \
     Printf, partial application) inside a configured hot path"
  | "DET-SRC" ->
    "nondeterminism source: Random.* instead of Util.Rng, wall-clock \
     reads, unordered Hashtbl iteration, polymorphic compare on \
     function-bearing types"
  | "PAR-ESCAPE" ->
    "mutable state captured and written inside a closure passed to \
     Par.parallel_map/init/sweep/run_tasks"
  | "EXN-SWALLOW" ->
    "catch-all exception handler that discards the exception"
  | "DEAD-EXPORT" ->
    "exported value no other unit references, or optional parameter no \
     call passes (Info when only the tests use it)"
  | "LINT-BASELINE" -> "stale baseline entry that matched no finding"
  | "LINT-HOTPATH" -> "hot-path entry that names no definition in a scanned library"
  | r -> invalid_arg (Printf.sprintf "Lint_config.describe: unknown rule %S" r)

(* The library a dotted path belongs to: its first component. *)
let library path =
  match String.index_opt path '.' with Some i -> String.sub path 0 i | None -> path

(* [path] extends [prefix] component-wise: "A.B" covers "A.B" and
   "A.B.anything" but not "A.Bc". *)
let path_matches ~prefix path =
  let rec go ps qs =
    match (ps, qs) with
    | [], _ -> true
    | _, [] -> false
    | p :: ps, q :: qs -> String.equal p q && go ps qs
  in
  go (String.split_on_char '.' prefix) (String.split_on_char '.' path)

let hot_kind t path =
  List.find_map
    (fun (prefix, kind) -> if path_matches ~prefix path then Some kind else None)
    t.hot_paths
