(** The photomask layer stack of a 5 nm process (paper §3.2, Figures 7–8,
    Appendix B note 3).

    Each physical layer is patterned by one reticle whose cost depends on
    its lithography class.  The paper's normalized model: a standard 193i
    DUV reticle is 1 unit; an EUV reticle 6 units.  The N5 stack has 12 EUV
    + 58 DUV layers = 130 units, anchored to $15M (optimistic) – $30M
    (pessimistic) for the full set.

    The Metal-Embedding layers are the 10 DUV reticles covering VIA7 through
    M11; everything else — all FEOL device layers, all EUV reticles, local
    interconnect, and the M12+ power/peripheral layers — is homogeneous
    across chips and across weight-update re-spins. *)

type litho_class =
  | Euv_se        (** EUV single exposure — finest features. *)
  | Duv_saqp      (** 193i self-aligned quadruple patterning (M0–M3 class). *)
  | Duv_sadp      (** 193i self-aligned double patterning (M4–M9 class). *)
  | Duv_lele      (** 193i litho-etch-litho-etch double patterning. *)
  | Duv_se        (** 193i single exposure (M10+, cheap). *)

type region = Feol | Beol_local | Beol_embedding | Beol_top
(** Front-end (devices/contacts); local interconnect M0–M7; the
    metal-embedding window M8–M11; power/clock/IO M12+. *)

type layer = {
  layer_name : string;
  region : region;
  litho : litho_class;
  embedding : bool;  (** true for the 10 per-chip ME reticles. *)
}

val n5_stack : layer list
(** The full 70-reticle N5 stack: 12 EUV + 58 DUV, of which 10 are the
    embedding layers (VIA7, M8 mandrel, M8 cut, VIA8, M9 mandrel, M9 cut,
    VIA9, M10, VIA10, M11). *)

val total_layers : layer list -> int

val euv_layers : layer list -> int

val total_units : layer list -> float

val embedding_units : layer list -> float

val homogeneous_units : layer list -> float

val embedding_fraction : layer list -> float
(** Paper: 10/130 = 7.7% of the mask-set value. *)

val no_euv_in_embedding : layer list -> bool
(** The headline manufacturability claim: every EUV reticle is shared. *)
