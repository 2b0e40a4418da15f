(** Single-chip floorplan roll-up — the reproduction of Table 1.

    Areas are derived from the component models (HN array density, SRAM
    macro model, link endpoints); powers combine derived terms (active-site
    switching, link streaming, leakage) with coefficients calibrated to the
    paper's post-layout sign-off, as documented per block.  The totals must
    land on the paper's 827.08 mm² / 308.39 W per chip and 13,232 mm² of
    system silicon. *)

type block = { block_name : string; area_mm2 : float; power_w : float }

type t = {
  blocks : block list;
  total_area_mm2 : float;
  total_power_w : float;
}

val table1 : ?config:Hnlpu_model.Config.t -> unit -> t
(** The six Table 1 rows for gpt-oss 120B at N5. *)

val system_silicon_mm2 : t -> float
(** Total die area x 16 chips (paper: 13,232 mm²). *)

val system_power_w : t -> float
(** Chip power x 16 x system overhead (power delivery, fans/pumps, host:
    1.4) — Table 2's 6.9 kW. *)

val area_share : t -> string -> float
(** Fraction of total area held by a named block. *)

val power_density_w_per_mm2 : t -> float
(** Average — the paper quotes 0.3 W/mm² against a 1.4 peak. *)

val to_table : t -> Hnlpu_util.Table.t
(** Rendered like the paper's Table 1 (area and power with shares). *)
