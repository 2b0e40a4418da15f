(** Metal-Embedding routing feasibility (paper §7.1).

    The sign-off claims the reproduction targets: routing density on the
    ME layers (M8–M11) below 70% with a congestion-free layout, parasitic
    extraction at an average R = 164 ohm and C = 7.8 fF per embedding
    wire, and signal integrity compatible with 1 GHz operation.

    Model: every hardwired weight is one wire on the M8–M11 window
    (mandrel-patterned M8/M9 at ~80 nm pitch, single-exposure M10/M11 at
    ~120 nm); supply is track-length over the HN array footprint, demand
    is wires x mean length.  The mean wire length (default 2 um) is
    calibrated to the paper's <70% density — and independently consistent
    with its published parasitics, which correspond to a few microns of
    minimum-width upper-metal copper plus the via stack. *)

type t = {
  wires : float;                  (** Embedding wires per chip. *)
  supply_m : float;               (** Track length available on M8–M11. *)
  demand_m : float;               (** Track length consumed. *)
  utilization : float;            (** Paper: < 0.70. *)
  avg_resistance_ohm : float;     (** Paper: 164. *)
  avg_capacitance_ff : float;     (** Paper: 7.8. *)
  wire_delay_ps : float;          (** 0.69 RC — must be << 1000 ps. *)
  congestion_free : bool;
}

val analyze : Hnlpu_model.Config.t -> t

val max_embeddable_weights :
  Hnlpu_model.Config.t -> float
(** Weights per chip at exactly the 70% routing ceiling — headroom check
    for larger models on the same die. *)
