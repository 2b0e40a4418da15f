open Hnlpu_model
open Hnlpu_noc
open Hnlpu_chip

type breakdown = {
  comm_s : float;
  projection_s : float;
  nonlinear_s : float;
  attention_s : float;
  stall_s : float;
}

let total_s b = b.comm_s +. b.projection_s +. b.nonlinear_s +. b.attention_s +. b.stall_s

let fractions b =
  let t = total_s b in
  {
    comm_s = b.comm_s /. t;
    projection_s = b.projection_s /. t;
    nonlinear_s = b.nonlinear_s /. t;
    attention_s = b.attention_s /. t;
    stall_s = b.stall_s /. t;
  }

let engine_base_s = 200.0e-9

let link_contention_factor = 4.17

(* One collective step of [bytes] over [link]: fixed PHY and engine terms
   plus serialization, inflated by link contention. *)
let step_s link bytes =
  (link.Link.phy_latency_s +. engine_base_s
  +. (float_of_int bytes /. link.Link.bandwidth_bytes_per_s))
  *. link_contention_factor

(* One collective step moves a whole chunk's payloads: the fixed terms are
   paid once per chunk, the serialization term scales.  Decode is
   [chunk = 1]. *)
let per_layer_comm_chunk_s ?(link = Link.cxl3) (c : Config.t) ~chunk =
  List.fold_left
    (fun acc { Layer_program.payload_bytes; steps; _ } ->
      let s = step_s link (payload_bytes c * chunk) in
      let rec charge acc n = if n = 0 then acc else charge (acc +. s) (n - 1) in
      charge acc steps)
    0.0 Layer_program.program

let per_layer_comm_s ?link c = per_layer_comm_chunk_s ?link c ~chunk:1

let cycle_s = Hnlpu_gates.Tech.cycle_time_s Hnlpu_gates.Tech.n5

(* FP16 activations stream into each HN bank; one shared stream feeds the
   Q/K/V banks (same input slice) and one feeds up+gate (same vector). *)
let per_layer_projection_cycles (c : Config.t) =
  let fp16 = 2 in
  let stream n = Hn_array.stream_cycles ~bytes:(n * fp16) in
  stream (c.Config.hidden / 4)      (* QKV input slice *)
  + stream (Config.q_dim c / 4)     (* output projection input (column's heads) *)
  + stream c.Config.hidden          (* up + gate (shared stream) *)
  + stream c.Config.expert_hidden   (* down projection *)

let per_layer_projection_s c =
  float_of_int (per_layer_projection_cycles c) *. cycle_s

let per_layer_nonlinear_s c =
  float_of_int (Vex.nonlinear_cycles c) *. cycle_s

let per_layer_attention_s (c : Config.t) ~context =
  (* Sliding-window configs alternate windowed/full layers; the per-layer
     average halves the long-context attention cost. *)
  match c.Config.sliding_window with
  | None -> float_of_int (Vex.attention_cycles c ~context) *. cycle_s
  | Some w ->
    let full = float_of_int (Vex.attention_cycles c ~context) in
    let windowed = float_of_int (Vex.attention_cycles c ~context:(min context w)) in
    (full +. windowed) /. 2.0 *. cycle_s

let per_layer_stall_s (c : Config.t) ~context =
  let spilled = Attention_buffer.spilled_bytes_per_token Attention_buffer.hnlpu c ~context in
  (* With a sliding window only the full-attention half of the layers ever
     touches far-away KV, halving the spill traffic; the fetch overlaps
     those same layers' (full) attention passes. *)
  let fetch_fraction, overlap_cycles =
    match c.Config.sliding_window with
    | None -> (1.0, Vex.attention_cycles c ~context)
    | Some _ -> (0.5, Vex.attention_cycles c ~context)
  in
  let per_layer = spilled *. fetch_fraction /. float_of_int c.Config.num_layers in
  let fetch = Hbm.fetch_time_s Hbm.hnlpu ~bytes:per_layer in
  Hbm.stall_s Hbm.hnlpu ~fetch_s:fetch
    ~compute_s:(float_of_int overlap_cycles *. cycle_s)

let token_breakdown (c : Config.t) ~context =
  let layers = float_of_int c.Config.num_layers in
  let sampling = float_of_int (Vex.sampling_cycles c) *. cycle_s in
  {
    comm_s = layers *. per_layer_comm_s c;
    projection_s = layers *. per_layer_projection_s c;
    nonlinear_s = (layers *. per_layer_nonlinear_s c) +. sampling;
    attention_s = layers *. per_layer_attention_s c ~context;
    stall_s = layers *. per_layer_stall_s c ~context;
  }

let token_latency_s c ~context = total_s (token_breakdown c ~context)

let pipeline_slots = Control_unit.pipeline_slots

let throughput_tokens_per_s c ~context =
  float_of_int (pipeline_slots c) /. token_latency_s c ~context

(* --- Prefill -------------------------------------------------------------- *)

let prefill_chunk_latency_s (c : Config.t) ~chunk ~context =
  if chunk < 1 then invalid_arg "Perf.prefill_chunk_latency_s: chunk >= 1";
  let layers = float_of_int c.Config.num_layers in
  let per_token =
    per_layer_projection_s c +. per_layer_nonlinear_s c
    +. per_layer_attention_s c ~context
  in
  layers *. (per_layer_comm_chunk_s c ~chunk +. (float_of_int chunk *. per_token))

let prefill_throughput_tokens_per_s c ~chunk ~context =
  float_of_int (pipeline_slots c * chunk)
  /. prefill_chunk_latency_s c ~chunk ~context

(* --- Memo ------------------------------------------------------------------ *)

(* Memoized operating points for the hot consumers (SLO bisection probes
   the same point dozens of times, every fleet set-up reads its decode
   latency and prefill rate; parallel sweeps hit the table from several
   domains at once, hence the mutex).  One table holds every memoized
   quantity.  A [Latency] key is laid out as the (config, context) pair
   it replaced, so the scheduler's lookup hashes and compares what it
   always did.  Keys are plain values, so structural equality is exact.
   The table is bounded defensively; real runs touch a handful of
   operating points. *)
type memo_key =
  | Latency of Config.t * int  (* context *)
  | Prefill of Config.t * int * int  (* chunk, context *)

let memo_eval = function
  | Latency (c, context) -> token_latency_s c ~context
  | Prefill (c, chunk, context) -> prefill_throughput_tokens_per_s c ~chunk ~context

let memo : (memo_key, float) Hashtbl.t = Hashtbl.create 64

let memo_mutex = Mutex.create ()

let memoized key =
  Mutex.lock memo_mutex;
  let hit = Hashtbl.find_opt memo key in
  Mutex.unlock memo_mutex;
  match hit with
  | Some v -> v
  | None ->
    let v = memo_eval key in
    Mutex.lock memo_mutex;
    if Hashtbl.length memo > 4096 then Hashtbl.reset memo;
    if not (Hashtbl.mem memo key) then Hashtbl.add memo key v;
    Mutex.unlock memo_mutex;
    v

let token_latency_cached c ~context = memoized (Latency (c, context))

let prefill_throughput_cached c ~chunk ~context =
  memoized (Prefill (c, chunk, context))

(* --- Figure 11 stage decomposition ------------------------------------------ *)

(* The single source of truth for stage labels: stage_times_s zips its
   latencies against this list, so chart and table output cannot drift. *)
let stage_names =
  [
    "S1: HN-Q/K/V + col all-reduce";
    "S2: attention QK + stats exchange";
    "S3: attention ZV + partial-O all-reduce";
    "S4: HN-Xo + row all-reduce + col all-gather";
    "S5: RMSNorm/router + HN-UP/GATE";
    "S6: SwiGLU + HN-DOWN + all-chip all-reduce";
  ]

let stage_times_s (c : Config.t) ~context =
  let stream n =
    float_of_int (Hnlpu_chip.Hn_array.stream_cycles ~bytes:(n * 2)) *. cycle_s
  in
  let attn = per_layer_attention_s c ~context /. 2.0 in
  let nl = per_layer_nonlinear_s c /. 2.0 in
  let compute =
    [
      stream (c.Config.hidden / 4);
      attn;
      attn;
      stream (Config.q_dim c / 4);
      nl +. stream c.Config.hidden;
      nl +. stream c.Config.expert_hidden;
    ]
  in
  List.mapi
    (fun i (name, compute) ->
      let comm acc { Layer_program.stage; steps; payload_bytes; _ } =
        if stage <> i + 1 then acc
        else acc +. (float_of_int steps *. step_s Link.cxl3 (payload_bytes c))
      in
      (name, List.fold_left comm compute Layer_program.program))
    (List.combine stage_names compute)

let figure14_contexts = [ 2048; 8192; 65536; 131072; 262144; 524288 ]

let figure14 c =
  List.map (fun l -> (l, token_breakdown c ~context:l)) figure14_contexts
