(** Approximate floating-point comparison helpers used throughout the test
    suites and by calibration assertions in the models. *)

val rel_error : float -> float -> float
(** [rel_error expected actual] is |actual - expected| / max(|expected|, eps).
    Zero when both are zero. *)

val close : ?rel:float -> float -> float -> bool
(** [close ~rel a b] holds when the relative error is within [rel]
    (default [1e-9]). *)

val within_pct : float -> expected:float -> actual:float -> bool
(** [within_pct p ~expected ~actual]: relative error no more than [p] percent.
    The paper-number regression tests use this with the tolerance recorded in
    EXPERIMENTS.md. *)
