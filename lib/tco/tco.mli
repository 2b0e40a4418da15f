(** Table 3: 3-year Total Cost of Ownership and carbon footprint for LLM
    inference — HNLPU vs an equivalently-provisioned H100 cluster, at low
    (1 HNLPU ~ 2,000 H100s) and high (50 HNLPU ~ 100,000 H100s,
    OpenAI-scale) volume.

    All rows derive from {!Pricing} and {!Cost_breakdown}; the tests check
    each against the paper's published figures (4 significant digits). *)

type volume = Low | High

val hnlpu_systems : volume -> int  (** 1 / 50. *)

val h100_gpus : volume -> int      (** 2,000 / 100,000. *)

val equivalence_gpus_per_hnlpu : float
(** ~2,000: HNLPU's ~2M tokens/s over 1.08K per H100 GPU under the 1K/1K
    concurrency-50 workload (Appendix B note 1). *)

type money = { lo : float; hi : float }
(** Optimistic/pessimistic range; collapsed (lo = hi) for the H100 side. *)

type column = {
  units : int;                    (** Systems (HNLPU) or GPUs (H100). *)
  datacenter_power_mw : float;
  node_price : money;
  infrastructure : money;
  total_capex : money;
  respin : money;                 (** Zero for H100. *)
  electricity : money;
  maintenance : money;
  opex : money;                   (** Electricity + maintenance, 3 years. *)
  tco_static : money;
  tco_dynamic : money;            (** With two annual weight-update re-spins. *)
  emissions_static_t : float;
  emissions_dynamic_t : float;
}

val hnlpu_column : volume -> column

val h100_column : volume -> column

(** {1 Headline ratios (H100 / HNLPU)} *)

val capex_ratio : volume -> float * float
(** High volume: 48.1x – 92.3x. *)

val opex_ratio : volume -> float * float
(** High volume: 1,496x – 1,793x. *)

val tco_dynamic_ratio : volume -> float * float
(** High volume: 41.7x – 80.4x. *)

val carbon_ratio : volume -> float * float
(** [(dynamic, static)] emissions ratios — High volume: 357x / 372x. *)
