(** Carbon-footprint deep dive, extending Table 3's bottom row (Appendix B
    note 8, "Sustainable AI Support").

    Emissions split into embodied (manufacturing, 124.9 kg CO2e per module
    or per H100 card) and operational (grid intensity x energy).  The
    headline 357x advantage is grid- and cadence-dependent; this module
    exposes both axes and a per-token intensity metric. *)

type split = {
  embodied_t : float;
  respin_embodied_t : float;
  operational_t : float;
  total_t : float;
}

val hnlpu_split : ?updates:int -> Tco.volume -> split
(** [updates] re-spins over the 3-year life (default 2, Table 3's dynamic
    assumption). *)

val h100_split : Tco.volume -> split

val operational_fraction : split -> float
(** Operational share of the total — for HNLPU the footprint is
    overwhelmingly operational; for the H100 cluster too, but 357x
    larger. *)

val grid_sweep : float list -> (float * float * float) list
(** For each grid intensity (kg CO2e/kWh): (intensity, HNLPU total t,
    H100 total t), at the high volume.  At a fully decarbonized grid (0.0) only embodied
    carbon remains and the advantage drops to the manufacturing ratio. *)

val advantage_at_grid : kgco2e_per_kwh:float -> unit -> float
(** H100 total / HNLPU total at a grid intensity, at the high volume. *)

val g_per_million_tokens : unit -> float
(** HNLPU grams of CO2e per million tokens served over the 3-year life
    (dynamic scenario, high volume, 60% utilization). *)

val update_cadence_sweep : Tco.volume -> int list -> (int * float) list
(** Re-spins over 3 years -> total tCO2e: how fast model churn erodes the
    hardwiring advantage (it barely does — re-spin silicon is small
    against operational savings). *)
