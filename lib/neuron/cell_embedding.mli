(** Cell-Embedding (CE) — conventional hardwiring (paper Figure 4-1).

    One multiply-by-constant unit per weight element, silicon-encoded, plus
    one wide adder tree per output neuron.  Weights are immutable but the
    silicon *devices* depend on them, so every chip needs its own full
    photomask set — the $6B straw-man of §2.2.

    The machine is fully parallel: all products form combinationally and one
    CSA tree per neuron reduces them.  Latency is a handful of cycles;
    area is dominated by the per-weight multipliers and the strength of the
    adder trees (Figure 4's point: compare against {!Metal_embedding}). *)

type t

val make : Gemv.t -> t

val ppa : Bank.t -> Report.t
(** The 5 nm PPA report of a bank, from its shape and code histogram
    alone: equal to the report [run (make g)] returns, for any bank of [g]. *)

val run : t -> int array -> int array * Report.t
(** Execute, returning half-unit results (always equal to
    {!Gemv.reference}) and the PPA report at 5 nm.  Rejects bad activations
    with {!Gemv.check_activations}. *)
