(** The per-chip Interconnect Engine (paper §4.3): six CXL x16 endpoints
    (3 row peers + 3 column peers) plus the collective sequencer. *)

val area_mm2 : float
(** Table 1: 37.92 mm² (~6.3 mm² of PHY + controller per endpoint). *)

val power_w : float
(** All CXL 3.0 endpoints streaming: links x bandwidth x pJ/bit — reproduces
    Table 1's 49.65 W from the link model's energy figure. *)
