(** Ablation studies for the design choices the paper discusses (§8).

    Each function returns typed rows (and the CLI/bench render them), so
    the trade-offs behind the headline design are explorable:

    - {b interconnect}: §7.4 shows CXL communication dominating at short
      context, and §8 argues "advanced interconnection technology (e.g.,
      wafer-scale integration) would put both HNLPU and field-programmable
      LPU in a stronger position" — quantified here by swapping the link.
    - {b field-programmable}: §8's "Field-programmable vs
      Metal-programmable": SRAM-backed weights cost ~10x the area per
      parameter, need more chips, and add interconnect pressure; in
      exchange, re-spins are free.
    - {b activation precision}: the bit-serial HN trades one plane per
      activation bit; fewer bits shorten projection, more bits raise it.
    - {b POPCNT slack}: undersized regions fail to route skewed weight
      distributions; oversized ones waste area.  Monte-Carlo over random
      FP4 matrices. *)

type interconnect_row = {
  link_name : string;
  bandwidth_gbps : float;
  latency_ns : float;
  throughput_tokens_per_s : float;
  comm_fraction : float;
}

val interconnect_sweep :
  Hnlpu_model.Config.t -> interconnect_row list
(** All sweeps in this module run at 2K context.  Every sweep but
    {!slack_sweep} is closed-form and takes microseconds, so it is a
    plain map; only the Monte-Carlo {!slack_sweep} runs across the
    {!Hnlpu_par.Par} pool, with results identical for every width. *)

type programmability_row = {
  variant : string;
  tr_per_weight : float;
  chips : int;
  silicon_mm2 : float;
  mask_nre_usd : float;
  respin_usd : float;
  relative_throughput : float;
      (** Normalized to metal-programmable = 1.0; more chips widen the
          collective groups. *)
}

val programmability : Hnlpu_model.Config.t -> programmability_row list
(** [metal-programmable; field-programmable] for the model. *)

type precision_row = {
  act_bits : int;
  serial_planes : int;
  projection_us_per_layer : float;
  throughput_tokens_per_s : float;
}

val precision_sweep :
  Hnlpu_model.Config.t -> precision_row list
(** Activation width 4 / 8 / 16 bits (the design streams FP16). *)

type slack_row = {
  slack : float;
  failure_rate : float;    (** Fraction of random matrices that overflow. *)
  area_ratio : float;      (** POPCNT area relative to slack 1.0. *)
}

val slack_sweep : Hnlpu_util.Rng.t -> slack_row list
(** Routing-failure probability vs region slack on 200 random FP4 rows of
    gpt-oss's hidden width (2880).  One generator is split off [rng] per slack
    point before the (parallel) Monte-Carlo trials, so the result depends
    only on [rng]'s state, not on the domain count. *)

type window_row = {
  window_context : int;
  full_tokens_per_s : float;
  windowed_tokens_per_s : float;
  speedup : float;
}

val sliding_window_sweep : unit -> window_row list
(** Full attention vs the real gpt-oss's alternating 128-token sliding
    window across the Figure 14 contexts: windowing halves the attention
    term on even layers, so the speedup grows with context (and defers the
    HBM stall). *)

type speculative_row = {
  lookahead : int;
  expected_tokens_per_pass : float;
  spec_tokens_per_s : float;
  spec_speedup : float;
}

val speculative_sweep :
  ?acceptance:float -> Hnlpu_model.Config.t -> speculative_row list
(** Speculative decoding on HNLPU: a draft's k-token proposal verifies as
    one chunked-prefill pass (the §5.2 batching lever), so at acceptance
    rate a each pass yields [1 + sum a^i] tokens.  Returns the projected
    decode throughput for lookaheads 1/2/4/8 (default acceptance 0.7). *)

val chunk_sweep : Hnlpu_model.Config.t -> (int * float) list
(** Prefill chunk size -> tokens/s (the batching lever of §5.2). *)
