(** Manufacturing yield and per-die cost (paper §7.1 and Appendix B).

    Murphy's model with D0 = 0.11 /cm² on the 827 mm² HNLPU die predicts a
    43% yield, ~27 good dies out of 62 gross per 300 mm wafer, and $629 per
    good die at the paper's $16,988 wafer price. *)

val murphy : defect_density_per_cm2:float -> die_area_mm2:float -> float
(** Murphy yield: [((1 - exp (-. a *. d)) /. (a *. d)) ** 2.] with the die
    area [a] in cm². *)

val gross_dies_per_wafer : wafer_diameter_mm:float -> die_area_mm2:float -> int
(** Classical edge-corrected count:
    [pi (d/2)^2 / A - pi d / sqrt (2 A)], floored. *)

val good_dies_per_wafer : Tech.t -> die_area_mm2:float -> int
(** Gross dies x Murphy yield, rounded to nearest. *)

val cost_per_good_die : Tech.t -> die_area_mm2:float -> float
(** Wafer cost divided by good dies. *)

val wafers_for : Tech.t -> die_area_mm2:float -> dies:int -> int
(** Wafer starts needed to obtain [dies] good dies. *)

val wafer_bill_at_yield : Tech.t -> die_area_mm2:float -> yield_rate:float -> dies:int -> float
(** Those wafers' cost: ~$0.5M for one 16-chip system and ~$22M for 50 at
    1% yield — marginal against the TCO (§8). *)

val monte_carlo :
  Hnlpu_util.Rng.t -> defect_density_per_cm2:float -> die_area_mm2:float ->
  trials:int -> float
(** Monte-Carlo estimate of the Murphy yield: the density is drawn from
    the symmetric triangular distribution on [0, 2 D0] that underlies
    Murphy's closed form, then defects land Poisson on the die.  Converges
    to {!murphy} (property-tested). *)
