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

(* Collective steps of one layer (parallel-link engines; an all-reduce over
   a group of 4 is a reduce step plus a broadcast step):
   QKV: 2 (Q all-reduce) + 1 (K reduce) + 1 (V reduce)
   Attention: 2 (softmax stats) + 2 (partial O)
   Output: 2 (row all-reduce) + 1 (column all-gather)
   MoE combine: 4 (hierarchical all-chip all-reduce). *)
let comm_steps payloads = List.concat_map (fun (steps, bytes) -> List.init steps (fun _ -> bytes)) payloads

let layer_payloads (c : Config.t) =
  let fp16 = Link.bytes_per_value in
  [
    (2, Config.q_dim c / 4 * fp16);    (* Q all-reduce *)
    (1, Config.kv_dim c / 4 * fp16);   (* K reduce *)
    (1, Config.kv_dim c / 4 * fp16);   (* V reduce *)
    (2, 64);                           (* softmax statistics *)
    (2, Config.q_dim c / 4 * fp16);    (* partial attention output *)
    (2, c.Config.hidden / 4 * fp16);   (* Xo row all-reduce *)
    (1, c.Config.hidden / 4 * fp16);   (* Xo column all-gather *)
    (4, c.Config.hidden * fp16);       (* MoE all-chip all-reduce *)
  ]

let comm_steps_per_layer = 15

let per_layer_comm_s ?(link = Link.cxl3) (c : Config.t) =
  let steps = comm_steps (layer_payloads c) in
  assert (List.length steps = comm_steps_per_layer);
  List.fold_left
    (fun acc bytes ->
      acc
      +. ((link.Link.phy_latency_s +. engine_base_s
          +. (float_of_int bytes /. link.Link.bandwidth_bytes_per_s))
         *. link_contention_factor))
    0.0 steps

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

(* Memoized variant for the hot consumers (SLO bisection probes the same
   operating point dozens of times; parallel sweeps hit it from several
   domains at once, hence the mutex).  Keys are plain records — structural
   equality is exact.  The table is bounded defensively; real runs touch a
   handful of operating points. *)
let latency_cache : (Config.t * int, float) Hashtbl.t =
  Hashtbl.create 64

let latency_cache_mutex = Mutex.create ()

let token_latency_cached c ~context =
  let key = (c, context) in
  Mutex.lock latency_cache_mutex;
  let hit = Hashtbl.find_opt latency_cache key in
  Mutex.unlock latency_cache_mutex;
  match hit with
  | Some l -> l
  | None ->
    let l = token_latency_s c ~context in
    Mutex.lock latency_cache_mutex;
    if Hashtbl.length latency_cache > 4096 then Hashtbl.reset latency_cache;
    if not (Hashtbl.mem latency_cache key) then Hashtbl.add latency_cache key l;
    Mutex.unlock latency_cache_mutex;
    l

let pipeline_slots = Control_unit.pipeline_slots

let throughput_tokens_per_s c ~context =
  float_of_int (pipeline_slots c) /. token_latency_s c ~context

(* --- Prefill -------------------------------------------------------------- *)

let per_layer_comm_chunk_s ?(link = Link.cxl3) (c : Config.t) ~chunk =
  (* One collective step moves the whole chunk's payloads: the fixed terms
     are paid once per chunk, the serialization term scales. *)
  let steps = comm_steps (layer_payloads c) in
  List.fold_left
    (fun acc bytes ->
      acc
      +. ((link.Link.phy_latency_s +. engine_base_s
          +. (float_of_int (bytes * chunk) /. link.Link.bandwidth_bytes_per_s))
         *. link_contention_factor))
    0.0 steps

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
  let link = Link.cxl3 in
  let step bytes =
    (link.Link.phy_latency_s +. engine_base_s
    +. (float_of_int bytes /. link.Link.bandwidth_bytes_per_s))
    *. link_contention_factor
  in
  let fp16 = Link.bytes_per_value in
  let cyc n = float_of_int n *. cycle_s in
  let stream n = cyc (Hnlpu_chip.Hn_array.stream_cycles ~bytes:(n * 2)) in
  let attn = per_layer_attention_s c ~context /. 2.0 in
  let nl = per_layer_nonlinear_s c /. 2.0 in
  let q_bytes = Config.q_dim c / 4 * fp16 in
  let kv_bytes = Config.kv_dim c / 4 * fp16 in
  let h4_bytes = c.Config.hidden / 4 * fp16 in
  let h_bytes = c.Config.hidden * fp16 in
  List.map2
    (fun name t -> (name, t))
    stage_names
    [
      stream (c.Config.hidden / 4) +. (2.0 *. step q_bytes) +. (2.0 *. step kv_bytes);
      attn +. (2.0 *. step 64);
      attn +. (2.0 *. step q_bytes);
      stream (Config.q_dim c / 4) +. (2.0 *. step h4_bytes) +. step h4_bytes;
      nl +. stream c.Config.hidden;
      nl +. stream c.Config.expert_hidden +. (4.0 *. step h_bytes);
    ]

let figure14_contexts = [ 2048; 8192; 65536; 131072; 262144; 524288 ]

let figure14 c =
  List.map (fun l -> (l, token_breakdown c ~context:l)) figure14_contexts
