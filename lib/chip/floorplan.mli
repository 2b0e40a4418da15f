(** Single-chip floorplan roll-up — the reproduction of Table 1.

    Areas are derived from the component models (HN array density, SRAM
    macro model, link endpoints); powers combine derived terms (active-site
    switching, link streaming, leakage) with coefficients calibrated to the
    paper's post-layout sign-off, as documented per block.  The totals are
    checked against Tables 1 and 2 by their [Hnlpu.Paper] records. *)

type block = { block_name : string; area_mm2 : float; power_w : float }

type t = {
  blocks : block list;
  total_area_mm2 : float;
  total_power_w : float;
}

val table1 : ?config:Hnlpu_model.Config.t -> unit -> t
(** The six Table 1 rows for gpt-oss 120B at N5. *)

val system_silicon_mm2 : t -> float
(** Total die area x 16 chips. *)

val system_power_w : t -> float
(** Chip power x 16 x system overhead (power delivery, fans/pumps, host:
    1.4) — Table 2's system power. *)

val area_share : t -> string -> float
(** Fraction of total area held by a named block. *)

val power_density_w_per_mm2 : t -> float
(** Average over the die (a §7.1 side claim). *)
