(** The paper's Table 5: HNLPU cost analysis — recurring per-chip cost,
    non-recurring photomask and design/development cost, and the total
    build/re-spin scenarios for 1 and 50 systems. *)

val chips_per_system : int
(** 16. *)

type line = { item : string; lo_usd : float; hi_usd : float }

val mask_nre_usd : Pricing.bound -> float
(** Homogeneous + 16-chip ME masks: $32.31M – $64.61M. *)

val initial_build_usd : Pricing.bound -> systems:int -> float
(** Full NRE + recurring for [systems] x 16 chips.
    Table 5: $59.25M–123.3M (1 system), $62.83M–129.9M (50). *)

val respin_usd : Pricing.bound -> systems:int -> float
(** ME masks + recurring.
    Table 5: $18.53M–37.06M (1), $22.11M–43.68M (50). *)

val to_table : unit -> Hnlpu_util.Table.t
