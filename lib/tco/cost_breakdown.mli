(** The paper's Table 5: HNLPU cost analysis — recurring per-chip cost,
    non-recurring photomask and design/development cost, and the total
    build/re-spin scenarios for 1 and 50 systems. *)

val chips_per_system : int
(** 16. *)

val mask_nre_usd : Pricing.bound -> float
(** Homogeneous + 16-chip ME masks: $32.31M – $64.61M. *)

val initial_build_usd : Pricing.bound -> systems:int -> float
(** Full NRE + recurring for [systems] x 16 chips (Table 5's build rows). *)

val respin_usd : Pricing.bound -> systems:int -> float
(** ME masks + recurring (Table 5's re-spin rows). *)
