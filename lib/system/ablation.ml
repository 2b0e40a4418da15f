open Hnlpu_model
open Hnlpu_noc
module Par = Hnlpu_par.Par

(* The sweeps run at the paper's 2K-token operating point. *)
let context = 2048

type interconnect_row = {
  link_name : string;
  bandwidth_gbps : float;
  latency_ns : float;
  throughput_tokens_per_s : float;
  comm_fraction : float;
}

let interconnect_options =
  let mk bandwidth phy =
    { Link.cxl3 with Link.bandwidth_bytes_per_s = bandwidth; phy_latency_s = phy }
  in
  [
    ("PCIe 5.0 x16", mk 64.0e9 150.0e-9);
    ("CXL 3.0 x16 (design point)", Link.cxl3);
    ("NVLink-class", mk 450.0e9 50.0e-9);
    ("wafer-scale", mk 2.0e12 10.0e-9);
  ]

let throughput_with_link ~link ~context (c : Config.t) =
  let layers = float_of_int c.Config.num_layers in
  let comm = layers *. Perf.per_layer_comm_s ~link c in
  let rest =
    layers
    *. (Perf.per_layer_projection_s c +. Perf.per_layer_nonlinear_s c
       +. Perf.per_layer_attention_s c ~context
       +. Perf.per_layer_stall_s c ~context)
  in
  let total = comm +. rest in
  (float_of_int (Perf.pipeline_slots c) /. total, comm /. total)

let interconnect_sweep ?domains c =
  Par.parallel_map ?domains
    (fun (link_name, link) ->
      let throughput, comm_fraction = throughput_with_link ~link ~context c in
      {
        link_name;
        bandwidth_gbps = link.Link.bandwidth_bytes_per_s /. 1e9;
        latency_ns = link.Link.phy_latency_s *. 1e9;
        throughput_tokens_per_s = throughput;
        comm_fraction;
      })
    interconnect_options

type programmability_row = {
  variant : string;
  tr_per_weight : float;
  chips : int;
  silicon_mm2 : float;
  mask_nre_usd : float;
  respin_usd : float;
  relative_throughput : float;
}

(* SRAM-backed field-programmable HNs: each 4-bit weight needs storage
   cells and a selection mux on the popcount routing — ~10x the
   metal-embedded transistor cost (see Lora.Side_channel for the same
   factor on the 1% side-channel). *)
let field_programmable_factor = 10.0

let programmability (c : Config.t) =
  let base_chips = Topology.chips in
  let die = 827.08 in
  let metal =
    {
      variant = "metal-programmable (HNLPU)";
      tr_per_weight = Hnlpu_chip.Hn_array.transistors_per_weight;
      chips = base_chips;
      silicon_mm2 = float_of_int base_chips *. die;
      mask_nre_usd =
        Hnlpu_litho.Mask_cost.sea_of_neurons_initial Hnlpu_litho.Mask_cost.Pessimistic
          ~chips:base_chips;
      respin_usd =
        Hnlpu_litho.Mask_cost.sea_of_neurons_respin Hnlpu_litho.Mask_cost.Pessimistic
          ~chips:base_chips;
      relative_throughput = 1.0;
    }
  in
  let fp_chips =
    int_of_float (ceil (float_of_int base_chips *. field_programmable_factor))
  in
  (* One fully homogeneous mask set serves every chip, and updates are a
     reload, not a re-spin.  The price is silicon and communication: wider
     distribution scales collective depth ~ sqrt(chips). *)
  let comm_scale = sqrt (float_of_int fp_chips /. float_of_int base_chips) in
  let layers = float_of_int c.Config.num_layers in
  let comm = layers *. Perf.per_layer_comm_s c in
  let rest =
    layers
    *. (Perf.per_layer_projection_s c +. Perf.per_layer_nonlinear_s c
       +. Perf.per_layer_attention_s c ~context)
  in
  let field =
    {
      variant = "field-programmable (SRAM-backed)";
      tr_per_weight = Hnlpu_chip.Hn_array.transistors_per_weight *. field_programmable_factor;
      chips = fp_chips;
      silicon_mm2 = float_of_int fp_chips *. die;
      mask_nre_usd = Hnlpu_litho.Mask_cost.full_set_usd Hnlpu_litho.Mask_cost.Pessimistic;
      respin_usd = 0.0;
      relative_throughput = (comm +. rest) /. ((comm *. comm_scale) +. rest);
    }
  in
  [ metal; field ]

type precision_row = {
  act_bits : int;
  serial_planes : int;
  projection_us_per_layer : float;
  throughput_tokens_per_s : float;
}

let precision_sweep ?domains (c : Config.t) =
  let cycle = Hnlpu_gates.Tech.cycle_time_s Hnlpu_gates.Tech.n5 in
  Par.parallel_map ?domains
    (fun bits ->
      let bytes_per_elem = float_of_int bits /. 8.0 in
      let stream n =
        let b = int_of_float (ceil (float_of_int n *. bytes_per_elem)) in
        Hnlpu_chip.Hn_array.stream_cycles ~bytes:(max 4 b)
      in
      let proj_cycles =
        stream (c.Config.hidden / 4)
        + stream (Config.q_dim c / 4)
        + stream c.Config.hidden
        + stream c.Config.expert_hidden
      in
      let proj = float_of_int proj_cycles *. cycle in
      let layers = float_of_int c.Config.num_layers in
      let total =
        layers
        *. (Perf.per_layer_comm_s c +. proj +. Perf.per_layer_nonlinear_s c
           +. Perf.per_layer_attention_s c ~context)
      in
      {
        act_bits = bits;
        serial_planes = bits;
        projection_us_per_layer = proj *. 1e6;
        throughput_tokens_per_s = float_of_int (Perf.pipeline_slots c) /. total;
      })
    [ 4; 8; 16 ]

type slack_row = { slack : float; failure_rate : float; area_ratio : float }

let slack_sweep rng ?domains ?(trials = 200) () =
  let in_features = 2880 and regions = Hnlpu_neuron.Bank.regions in
  let balanced = Hnlpu_neuron.Bank.region_capacity ~slack:1.0 in_features in
  (* Split one generator per slack point sequentially up front, then run
     the Monte-Carlo trials in parallel: each point owns its stream, so
     the result is independent of the domain count. *)
  let points =
    List.map
      (fun slack -> (slack, Hnlpu_util.Rng.split rng))
      [ 1.0; 1.05; 1.1; 1.2; 1.5; 2.0 ]
  in
  Par.parallel_map ?domains
    (fun (slack, rng) ->
      let capacity = Hnlpu_neuron.Bank.region_capacity ~slack in_features in
      let failures = ref 0 in
      (* Per-task scratch, reset per trial — not reallocated. *)
      let counts = Array.make regions 0 in
      for _ = 1 to trials do
        Array.fill counts 0 regions 0;
        for _ = 1 to in_features do
          let c = Hnlpu_util.Rng.int rng regions in
          counts.(c) <- counts.(c) + 1
        done;
        if Array.exists (fun k -> k > capacity) counts then incr failures
      done;
      {
        slack;
        failure_rate = float_of_int !failures /. float_of_int trials;
        area_ratio = float_of_int capacity /. float_of_int balanced;
      })
    points

type window_row = {
  window_context : int;
  full_tokens_per_s : float;
  windowed_tokens_per_s : float;
  speedup : float;
}

let sliding_window_sweep () =
  let full = Config.gpt_oss_120b and sw = Config.gpt_oss_120b_sw in
  Par.parallel_map
    (fun context ->
      let tf = Perf.throughput_tokens_per_s full ~context in
      let tw = Perf.throughput_tokens_per_s sw ~context in
      { window_context = context; full_tokens_per_s = tf;
        windowed_tokens_per_s = tw; speedup = tw /. tf })
    Perf.figure14_contexts

type speculative_row = {
  lookahead : int;
  expected_tokens_per_pass : float;
  spec_tokens_per_s : float;
  spec_speedup : float;      (** Over plain decode. *)
}

let speculative_sweep ?(acceptance = 0.7) ?domains
    (c : Config.t) =
  if not (acceptance >= 0.0 && acceptance < 1.0) then
    invalid_arg "Ablation.speculative_sweep: acceptance in [0,1)";
  let base = Perf.throughput_tokens_per_s c ~context in
  Par.parallel_map ?domains
    (fun k ->
      (* Greedy speculative: accepted prefix length has expectation
         sum_{i<=k} a^i; each pass also yields the corrected/bonus token.
         The verification pass rides the chunked-prefill path (k+1 tokens
         through the pipeline as one block). *)
      let a = acceptance in
      let expected = (a *. (1.0 -. (a ** float_of_int k)) /. (1.0 -. a)) +. 1.0 in
      let pass_latency = Perf.prefill_chunk_latency_s c ~chunk:(k + 1) ~context in
      let tput =
        float_of_int (Perf.pipeline_slots c) *. expected /. pass_latency
      in
      {
        lookahead = k;
        expected_tokens_per_pass = expected;
        spec_tokens_per_s = tput;
        spec_speedup = tput /. base;
      })
    [ 1; 2; 4; 8 ]

let chunk_sweep c =
  Par.parallel_map
    (fun chunk ->
      (chunk, Perf.prefill_throughput_tokens_per_s c ~chunk ~context))
    [ 1; 2; 4; 8; 16; 32; 64 ]
