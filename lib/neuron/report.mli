(** Common PPA (power–performance–area) report emitted by each embedding
    machine, the data behind Figures 12 and 13. *)

type t = {
  design : string;
  transistors : float;       (** Logic transistors (excl. SRAM bit cells). *)
  sram_bytes : int;           (** On-unit SRAM capacity, 0 if none. *)
  area_mm2 : float;           (** Logic area + SRAM macro area. *)
  cycles : int;               (** Latency of one GEMV in clock cycles. *)
  dynamic_energy_j : float;   (** Switching energy of one GEMV. *)
  leakage_power_w : float;    (** Static power of the whole unit. *)
}

val energy_j : Hnlpu_gates.Tech.t -> t -> float
(** Dynamic energy plus leakage integrated over the op latency — the
    per-operation energy plotted in Figure 13. *)

val area_ratio : t -> baseline:t -> float
(** Area relative to a baseline design (Figure 12 normalizes to the
    MAC-array's 64 KB SRAM). *)

val to_table : Hnlpu_gates.Tech.t -> t list -> Hnlpu_util.Table.t
(** Comparison table across designs. *)
