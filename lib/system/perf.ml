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

let cycle_s = Hnlpu_gates.Tech.cycle_time_s Hnlpu_gates.Tech.n5

(* --- The layer table --------------------------------------------------------- *)

type stage = {
  label : string;
  stream_cycles : int;
  attention_half_s : float;
  nonlinear_half_s : float;
  collectives : Layer_program.entry list;
}

type layer = {
  config : Config.t;
  link : Link.t;
  stages : stage list;
  sampling_s : float;
  hbm_stall_s : float;
}

let layer ~act_bits (c : Config.t) ~context =
  (* Activations stream into each HN bank at [act_bits] per element; one
     shared stream feeds the Q/K/V banks (same input slice) and one feeds
     up+gate (same vector). *)
  let stream n = Hn_array.stream_cycles ~bytes:(max 4 (((n * act_bits) + 7) / 8)) in
  let full = Vex.attention_cycles c ~context in
  (* Sliding-window configs alternate windowed/full layers: the per-layer
     attention is the average, and only the full half ever touches
     far-away KV, halving the spill traffic that overlaps its passes. *)
  let attention, fetch_fraction =
    match c.Config.sliding_window with
    | None -> (float_of_int full *. cycle_s, 1.0)
    | Some w ->
      let windowed = float_of_int (Vex.attention_cycles c ~context:(min context w)) in
      ((float_of_int full +. windowed) /. 2.0 *. cycle_s, 0.5)
  in
  let spilled = Attention_buffer.spilled_bytes_per_token Attention_buffer.hnlpu c ~context in
  let fetch_s =
    Hbm.fetch_time_s Hbm.hnlpu
      ~bytes:(spilled *. fetch_fraction /. float_of_int c.Config.num_layers)
  in
  let half_attention = attention /. 2.0 in
  let half_nonlinear = float_of_int (Vex.nonlinear_cycles c) *. cycle_s /. 2.0 in
  let stage i (label, stream_cycles, attention_half_s, nonlinear_half_s) =
    let collectives =
      List.filter (fun e -> e.Layer_program.stage = i + 1) Layer_program.program
    in
    { label; stream_cycles; attention_half_s; nonlinear_half_s; collectives }
  in
  {
    config = c;
    link = Link.cxl3;
    stages =
      List.mapi stage
        [
          ("S1: HN-Q/K/V + col all-reduce", stream (c.Config.hidden / 4), 0.0, 0.0);
          ("S2: attention QK + stats exchange", 0, half_attention, 0.0);
          ("S3: attention ZV + partial-O all-reduce", 0, half_attention, 0.0);
          ("S4: HN-Xo + row all-reduce + col all-gather", stream (Config.q_dim c / 4), 0.0, 0.0);
          ("S5: RMSNorm/router + HN-UP/GATE", stream c.Config.hidden, 0.0, half_nonlinear);
          ( "S6: SwiGLU + HN-DOWN + all-chip all-reduce",
            stream c.Config.expert_hidden, 0.0, half_nonlinear );
        ];
    sampling_s = float_of_int (Vex.sampling_cycles c) *. cycle_s;
    hbm_stall_s =
      Hbm.stall_s Hbm.hnlpu ~fetch_s ~compute_s:(float_of_int full *. cycle_s);
  }

let design c ~context = layer ~act_bits:(8 * Link.bytes_per_value) c ~context

(* One layer's collectives, charged by repeated addition in program order.
   One collective step moves a whole chunk's payloads: the fixed terms are
   paid once per chunk, the serialization term scales.  Decode is
   [chunk = 1]. *)
let comm_s t ~chunk =
  List.fold_left
    (fun acc { Layer_program.payload_bytes; steps; _ } ->
      let s = step_s t.link (payload_bytes t.config * chunk) in
      let rec charge acc n = if n = 0 then acc else charge (acc +. s) (n - 1) in
      charge acc steps)
    0.0
    (List.concat_map (fun st -> st.collectives) t.stages)

(* One layer's compute terms: projection from the integer stream-cycle sum,
   attention and nonlinear from the stages' halves. *)
let compute_s t =
  let cycles, attention, nonlinear =
    List.fold_left
      (fun (k, a, n) st ->
        (k + st.stream_cycles, a +. st.attention_half_s, n +. st.nonlinear_half_s))
      (0, 0.0, 0.0) t.stages
  in
  (float_of_int cycles *. cycle_s, attention, nonlinear)

let decode t =
  let layers = float_of_int t.config.Config.num_layers in
  let projection, attention, nonlinear = compute_s t in
  {
    comm_s = layers *. comm_s t ~chunk:1;
    projection_s = layers *. projection;
    nonlinear_s = (layers *. nonlinear) +. t.sampling_s;
    attention_s = layers *. attention;
    stall_s = layers *. t.hbm_stall_s;
  }

let stage_times t =
  List.map
    (fun st ->
      let compute =
        st.attention_half_s +. st.nonlinear_half_s
        +. (float_of_int st.stream_cycles *. cycle_s)
      in
      let comm acc { Layer_program.steps; payload_bytes; _ } =
        acc +. (float_of_int steps *. step_s t.link (payload_bytes t.config))
      in
      (st.label, List.fold_left comm compute st.collectives))
    t.stages

let token_breakdown c ~context = decode (design c ~context)

let token_latency_s c ~context = total_s (token_breakdown c ~context)

let pipeline_slots = Control_unit.pipeline_slots

let throughput_tokens_per_s c ~context =
  float_of_int (pipeline_slots c) /. token_latency_s c ~context

(* --- Prefill -------------------------------------------------------------- *)

let prefill_chunk_latency_s (c : Config.t) ~chunk ~context =
  if chunk < 1 then invalid_arg "Perf.prefill_chunk_latency_s: chunk >= 1";
  let t = design c ~context in
  let layers = float_of_int c.Config.num_layers in
  let projection, attention, nonlinear = compute_s t in
  let per_token = projection +. nonlinear +. attention in
  layers *. (comm_s t ~chunk +. (float_of_int chunk *. per_token))

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

let figure14_contexts = [ 2048; 8192; 65536; 131072; 262144; 524288 ]

let figure14 c =
  List.map (fun l -> (l, token_breakdown c ~context:l)) figure14_contexts
