(** Thermal feasibility model (paper §4.2 and §7.1).

    The paper's sign-off: average power density 0.3 W/mm², peak 1.4 W/mm²,
    "well within the cooling limits of 2.5D packaging", served by
    direct-to-chip liquid cooling (DLC) cold plates per module. *)

type block_density = {
  thermal_block : string;
  density_w_per_mm2 : float;
}

type t = {
  densities : block_density list;
  average_w_per_mm2 : float;
  peak_w_per_mm2 : float;
  junction_rise_k : float;     (** Above coolant, through the cold plate. *)
  junction_temp_c : float;
  within_limits : bool;
}

val dlc_limit_w_per_mm2 : float
(** Local hot-spot limit a DLC cold plate on 2.5D packaging handles
    comfortably (~2 W/mm²). *)

val max_junction_c : float
(** 105 C commercial silicon limit. *)

val coolant_c : float
(** Facility water loop, 35 C. *)

val analyze :
  ?config:Hnlpu_model.Config.t -> ?power_scale:float ->
  ?coolant_c:float -> ?obs:Hnlpu_obs.Sink.t -> unit -> t
(** Evaluate the Table 1 floorplan.  [within_limits] requires the peak
    density under {!dlc_limit_w_per_mm2} and the junction under
    {!max_junction_c}.

    [power_scale] (default 1.0, must be positive) scales every block's
    power — the deployment operating point a user bundle declares (an
    overclocked or over-volted part heats the same floorplan harder).
    [coolant_c] (default {!coolant_c}) overrides the facility loop
    temperature.  Both feed the signoff THERM-* rules.

    [obs] samples the operating point into a telemetry sink at time 0:
    per-block power-density and junction-temperature counter
    series, an "operating_point" instant tagged with the power scale and
    coolant temperature, and peak/average/rise gauges — the feedback signal
    the ROADMAP's power-aware admission throttling will close on. *)

val hotspot : t -> block_density
(** The densest block (the interconnect engine in our floorplan). *)
