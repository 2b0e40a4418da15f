(** Interconnect traffic accounting — and a consistency check on the
    performance model's calibration.

    This module counts the actual bytes each {!Layer_program} entry moves
    per token (its {!Hnlpu_noc.Schedule} plan's bytes times its group
    instances), aggregates the demand at the operating throughput, and
    compares against the fabric's capacity.  The fabric runs at ~70% load: heavily used but not
    saturated — consistent with §8's point that better interconnect
    (wafer-scale) is the first lever.

    Consistency check: at utilization rho, an M/M/1 server inflates service
    times by 1/(1-rho) ~ 3.5, close to {!Perf.link_contention_factor} (4.17).
    Not independent: rho comes from {!Perf}'s throughput, which already
    contains 4.17. *)

type ledger_entry = {
  collective : string;
  payload_bytes : int;     (** Per occurrence. *)
  link_bytes : int;        (** Total bytes crossing links per occurrence. *)
  per_layer : int;         (** Occurrences per layer per token. *)
}

type t = {
  entries : ledger_entry list;
  bytes_per_token : float;        (** All layers, all links. *)
  demand_bytes_per_s : float;     (** At the pipeline throughput. *)
  fabric_capacity_bytes_per_s : float;  (** 48 links x link bandwidth. *)
  mean_link_utilization : float;
  queueing_factor_mm1 : float;    (** 1 / (1 - utilization). *)
  consistent_with_calibration : bool;
      (** The M/M/1 factor within 40% of {!Perf.link_contention_factor} —
          consistent with it, not independent of it. *)
}

val analyze : Hnlpu_model.Config.t -> t
(** At 2K context. *)
