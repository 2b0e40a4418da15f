(** Technology-node constants for the paper's 5 nm point.

    Every physical estimate in this repository reads {!n5}, the one record
    the paper evaluates, so a what-if at another node is an edit to that
    record.  The 5 nm
    values come from the paper (§2.2, §6, Appendix B) and public PDK data;
    the energy coefficients are calibrated order-of-magnitude figures —
    EXPERIMENTS.md documents which reproduced ratio is sensitive to which
    constant. *)

type t = {
  name : string;
  transistor_density_per_mm2 : float;
      (** High-density logic transistors per mm² (paper: 138 MTr/mm²). *)
  logic_utilization : float;
      (** Fraction of placement area usable by standard cells after routing,
          power grid and whitespace (typ. 0.6–0.7). *)
  sram_bitcell_um2 : float;
      (** Six-transistor SRAM bit-cell area (5 nm HD: ~0.021 um²). *)
  sram_array_efficiency : float;
      (** Macro area efficiency: bitcell area / total macro area, small
          macros are periphery-dominated. *)
  clock_ghz : float;  (** Design frequency (paper closes 1.0 GHz at SSG). *)
  gate_energy_fj : float;
      (** Dynamic energy per full-adder-equivalent gate evaluation. *)
  flop_energy_fj : float;  (** Dynamic energy per flip-flop toggle. *)
  leakage_w_per_transistor : float;
      (** Static leakage per logic transistor (HD cells, nominal corner). *)
  sram_read_fj_per_bit : float;
  sram_write_fj_per_bit : float;
  sram_leak_w_per_mb : float;
  hbm_pj_per_bit : float;  (** Off-chip HBM access energy. *)
  wire_fj_per_bit_mm : float;
      (** On-die wire transport energy; the ME metal wires ride on this,
          which is why routing is "virtually free" vs. logic (paper §3.1). *)
  wafer_cost_usd : float;  (** Processed 300 mm wafer (paper: $16,988). *)
  wafer_diameter_mm : float;
  defect_density_per_cm2 : float;  (** Murphy D0 (paper: 0.11 /cm²). *)
  reticle_limit_mm2 : float;  (** Maximum die size per mask set (~830 mm²). *)
}

val n5 : t
(** The paper's 5 nm technology point. *)

val area_of_transistors : t -> float -> float
(** [area_of_transistors tech n] in mm², including the utilization derate. *)

val transistors_of_area : t -> float -> float
(** Inverse of {!area_of_transistors}. *)

val cycle_time_s : t -> float
