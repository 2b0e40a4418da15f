(** Appendix B cost constants.

    Every number in the paper's Table 3 and Table 5 derives from the
    constants below; the test suite re-derives each published line item.
    HNLPU-side ranges carry an optimistic/pessimistic [bound]. *)

type bound = Optimistic | Pessimistic

val anchor : bound -> Hnlpu_litho.Mask_cost.anchor

(** {1 HNLPU recurring cost, per chip (Table 5)} *)

val wafer_per_chip_usd : unit -> float
(** $629: Murphy-yield cost of one good 827 mm² die. *)

val package_test_usd : bound -> float
(** $111 – $185: $3,000–5,000 per wafer amortized over 27 good dies. *)

val hbm_usd : bound -> float
(** $1,920 – $3,840: $10–20/GB x 8 stacks x 24 GB. *)

val recurring_per_chip_usd : bound -> float
(** Wafer, package & test, HBM, and system integration ($1,900 – $3,800
    per chip: chassis, board, cooling, CXL). *)

(** {1 HNLPU design & development NRE (Table 5)} *)

val design_total_usd : bound -> float
(** Architecture ($1.87M – 3.74M), verification ($9.97M – 19.93M),
    physical ($4.80M – 14.41M) and IP ($10.23M – 20.46M). *)

(** {1 Shared datacenter economics} *)

val electricity_usd_per_kwh : float
(** $0.095 *)

val pue : float
(** 1.4 *)

val lifetime_hours : float
(** 3 years *)

val facility_usd_per_mw : float
(** $12M per MW of critical IT load *)

val grid_kgco2e_per_kwh : float
(** 0.38 *)

val embodied_kgco2e_per_module : float
(** 124.9 kg, one H100 card or one HNLPU module *)

(** {1 H100 cluster economics} *)

val h100_network_usd_per_node : float
(** $45K: NICs, switches, optics. *)

val h100_maintenance_rate_per_year : float
(** 5% of hardware CapEx per year. *)

val h100_license_usd_per_gpu_per_year : float
(** $5,873 — NVIDIA AI Enterprise per-GPU subscription as back-derived
    from Table 3's maintenance rows (consistent with published NVAIE
    tiers). *)

(** {1 HNLPU node networking} *)

val hnlpu_network_usd_per_chip : float
(** $5,625 = $45K/8: the paper scales the H100 per-GPU network cost by chip
    count. *)
