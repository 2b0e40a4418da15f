(** Tornado sensitivity analysis on the TCO verdict.

    Table 3's 41.7–80.4x advantage rests on Appendix B's point estimates.
    This module re-derives the high-volume dynamic-TCO advantage while
    scaling one assumption at a time across a plausibility band, showing
    which inputs the conclusion actually depends on (electricity price and
    GPU price) and which barely matter (mask prices, HNLPU silicon). *)

type params = {
  mask_scale : float;        (** Scales the whole mask NRE. *)
  design_scale : float;      (** Scales design & development NRE. *)
  recurring_scale : float;   (** Scales per-chip recurring cost. *)
  electricity_scale : float;
  gpu_price_scale : float;   (** Scales the $320K HGX node. *)
  license_scale : float;
  hnlpu_power_scale : float;
}

val baseline : params
(** All scales 1.0. *)

val advantage : params -> float
(** H100 3-year TCO over HNLPU dynamic TCO (midpoint of the
    optimistic/pessimistic band) under the scaled assumptions.  At
    {!baseline} and [High] volume this is ~56x (the geometric middle of
    41.7–80.4). *)

type tornado_bar = {
  factor : string;
  low_advantage : float;   (** Factor at 0.5x. *)
  high_advantage : float;  (** Factor at 2.0x. *)
  swing : float;           (** |high - low|, the bar length. *)
}

val tornado : unit -> tornado_bar list
(** One bar per parameter at [High] volume, each swept over [0.5x, 2x]
    with the others at baseline; sorted by decreasing swing.  Each bar is
    closed-form, so the sweep is a plain map, not a pool region. *)

val to_table : tornado_bar list -> Hnlpu_util.Table.t
