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

let interconnect_sweep c =
  let design = Perf.design c ~context in
  List.map
    (fun (link_name, link) ->
      let b = Perf.decode { design with Perf.link } in
      let total = Perf.total_s b in
      {
        link_name;
        bandwidth_gbps = link.Link.bandwidth_bytes_per_s /. 1e9;
        latency_ns = link.Link.phy_latency_s *. 1e9;
        throughput_tokens_per_s = float_of_int (Perf.pipeline_slots c) /. total;
        comm_fraction = b.Perf.comm_s /. total;
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
  let b = Perf.token_breakdown c ~context in
  let wide = { b with Perf.comm_s = b.Perf.comm_s *. comm_scale } in
  let field =
    {
      variant = "field-programmable (SRAM-backed)";
      tr_per_weight = Hnlpu_chip.Hn_array.transistors_per_weight *. field_programmable_factor;
      chips = fp_chips;
      silicon_mm2 = float_of_int fp_chips *. die;
      mask_nre_usd = Hnlpu_litho.Mask_cost.full_set_usd Hnlpu_litho.Mask_cost.Pessimistic;
      respin_usd = 0.0;
      relative_throughput = Perf.total_s b /. Perf.total_s wide;
    }
  in
  [ metal; field ]

type precision_row = {
  act_bits : int;
  serial_planes : int;
  projection_us_per_layer : float;
  throughput_tokens_per_s : float;
}

let precision_sweep (c : Config.t) =
  List.map
    (fun bits ->
      let b = Perf.decode (Perf.layer ~act_bits:bits c ~context) in
      {
        act_bits = bits;
        serial_planes = bits;
        projection_us_per_layer =
          b.Perf.projection_s /. float_of_int c.Config.num_layers *. 1e6;
        throughput_tokens_per_s = float_of_int (Perf.pipeline_slots c) /. Perf.total_s b;
      })
    [ 4; 8; 16 ]

type slack_row = { slack : float; failure_rate : float; area_ratio : float }

let slack_trials = 200

let slack_sweep rng =
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
  Par.parallel_map
    (fun (slack, rng) ->
      (* A private copy of the 8-byte state, allocated by the domain that
         draws from it: the split states sit side by side on the caller's
         heap, and two domains stepping neighbours share a cache line. *)
      let rng = Hnlpu_util.Rng.copy rng in
      let capacity = Hnlpu_neuron.Bank.region_capacity ~slack in_features in
      let failures = ref 0 in
      (* Per-task scratch, reset per trial — not reallocated. *)
      let counts = Array.make regions 0 in
      for _ = 1 to slack_trials do
        Array.fill counts 0 regions 0;
        for _ = 1 to in_features do
          let c = Hnlpu_util.Rng.int rng regions in
          counts.(c) <- counts.(c) + 1
        done;
        if Array.exists (fun k -> k > capacity) counts then incr failures
      done;
      {
        slack;
        failure_rate = float_of_int !failures /. float_of_int slack_trials;
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
  List.map
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

let speculative_sweep ?(acceptance = 0.7)
    (c : Config.t) =
  if not (acceptance >= 0.0 && acceptance < 1.0) then
    invalid_arg "Ablation.speculative_sweep: acceptance in [0,1)";
  let base = Perf.throughput_tokens_per_s c ~context in
  List.map
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
  List.map
    (fun chunk ->
      (chunk, Perf.prefill_throughput_tokens_per_s c ~chunk ~context))
    [ 1; 2; 4; 8; 16; 32; 64 ]
