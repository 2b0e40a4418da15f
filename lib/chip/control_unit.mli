(** The Control Unit (paper §4.3): on-chip scheduling and inter-layer
    pipelining for multi-batch operation.  It is a sliver of the die —
    Table 1 lists 0.02 mm² and negligible power — because the "program" is
    fixed: there is no instruction fetch, decode or dispatch. *)

val area_mm2 : float

val power_w : float

val pipeline_slots : Hnlpu_model.Config.t -> int
(** Maximum requests in flight: 6 pipeline stages per layer x layers
    (216 for gpt-oss 120B, §5.2). *)
