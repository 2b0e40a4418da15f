(** 2.5D packaging and the Known-Good-Module strategy (paper §4.2,
    "Physical System Integration").

    Each compute module integrates the 827 mm² die with 8 HBM stacks on a
    2.5D interposer.  The paper's manufacturing argument: test each module
    independently ("Known-Good-Module"), so final system assembly yield is
    decoupled from the big die's 43% wafer yield — assembling 16 *untested*
    modules would compound failure probabilities ruinously. *)

type t = {
  die_mm2 : float;
  hbm_stacks : int;
  interposer_mm2 : float;   (** Die + HBM shadow + keep-out. *)
  assembly_yield : float;    (** Per-module 2.5D assembly success. *)
  module_test_yield : float; (** Post-assembly test escape complement. *)
}

val hnlpu : t

val system_yield_kgm : t -> modules:int -> float
(** With Known-Good-Module: modules are tested before system integration,
    so the system assembles from good modules and only board-level
    integration (modelled inside {!module_yield}'s complement) matters:
    effectively ~1. *)

val system_yield_untested : t -> die_yield:float -> modules:int -> float
(** The counterfactual: integrate untested dies directly; all [modules]
    dies and assemblies must succeed at once. *)

val kgm_advantage : t -> die_yield:float -> modules:int -> float
(** Ratio of system yields — why the paper builds modules (hundreds of x
    at 16 modules and 43% die yield). *)

val module_cost_usd : ?bound:[ `Lo | `Hi ] -> t -> float
(** Bill of materials per module: good die + HBM + interposer/assembly —
    consistent with Table 5's recurring columns. *)

val interposer_utilization : t -> float
(** Die + HBM silicon over interposer area. *)
