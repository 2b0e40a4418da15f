(** Chip-physical signoff rules over the {!Hnlpu_chip.Thermal} model.

    Rule IDs:
    - [THERM-DENS] — the floorplan's peak power density at the declared
      operating point must stay under the
      {!Hnlpu_chip.Thermal.dlc_limit_w_per_mm2} DLC cold-plate limit
      (2 W/mm²).  The diagnostic names the hotspot block.
    - [THERM-JCT]  — the junction temperature (coolant plus die-to-coolant
      rise) must stay under {!Hnlpu_chip.Thermal.max_junction_c} (105 °C). *)

val thermal :
  ?config:Hnlpu_model.Config.t ->
  ?power_scale:float -> ?coolant_c:float -> subject:string -> unit ->
  Diagnostic.t list
(** Run {!Hnlpu_chip.Thermal.analyze} at the bundle's operating point
    ([power_scale], [coolant_c]) and emit [THERM-DENS] and [THERM-JCT] —
    [Error] past a limit, [Info] when clean.  An operating point the model
    rejects (non-positive [power_scale]) is a [THERM-DENS] error. *)
