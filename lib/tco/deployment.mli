(** Deployment-level analyses from the paper's §8 Discussion.

    {b Blue-green updates} ("Model Updates"): when a new checkpoint is
    validated on GPU testbeds, "green" HNLPUs are manufactured (6–8 week
    turnaround) while the "blue" fleet keeps serving; traffic flips at
    delivery, so weight updates cost a re-spin but zero downtime.

    {b Inference volume} ("Inference Volume"): NRE amortizes over the
    fleet; this module sweeps fleet size to locate the cost-per-token
    crossover against the H100 cluster. *)

type update_plan = {
  updates_per_year : float;
  turnaround_weeks : float;  (** Paper: 6–8 weeks per re-spin. *)
  years : float;
}

val annual_plan : update_plan
(** One update per year, 7-week turnaround, 3 years — the Table 3
    "dynamic" assumption. *)

type blue_green = {
  total_updates : int;
  respin_bill : float * float;      (** (optimistic, pessimistic). *)
  weeks_in_transition : float;       (** Green manufacturing time. *)
  peak_fleet_factor : float;         (** 2.0 during cutover weeks. *)
  downtime_weeks : float;            (** 0 — the point of blue-green. *)
  serving_capacity_fraction : float; (** Time-averaged capacity >= 1.0. *)
}

val blue_green : update_plan -> blue_green
(** The plan's re-spins for one system. *)

type volume_point = {
  systems : int;
  tco_usd : float * float;           (** 3-year dynamic TCO (opt, pess). *)
  tokens_served : float;             (** 3 years at the decode rate. *)
  usd_per_mtoken : float * float;
  h100_usd_per_mtoken : float;       (** Equivalent-throughput cluster. *)
}

val volume_sweep : int list -> volume_point list
(** Cost per million tokens vs fleet size at 60% utilization of the peak
    decode rate.  The H100 column provisions the equivalent GPUs at the
    same utilization. *)

val crossover_systems : unit -> int option
(** Smallest fleet at which even the pessimistic HNLPU cost-per-token
    beats the H100 cluster (None if never within 1..1000). *)
