(** The MAC-array (MA) baseline of §6.3: a 64 KB weight SRAM feeding a
    conventional array of 1024 FP4 MACs.

    Weights live as *data* in the SRAM and are re-fetched on every GEMV —
    the cost the Hardwired-Neuron designs eliminate.  Per Figure 12's
    convention the reported area covers the SRAM macro only ("excluding the
    arbitrarily-sized computing array"); the MAC logic still contributes
    transistors, energy and leakage. *)

type t

val make : ?n_macs:int -> Gemv.t -> t
(** [make gemv] sizes the SRAM to hold exactly the GEMV's weights (64 KB for
    the paper benchmark).  [n_macs] defaults to 1024. *)

val ppa : Bank.t -> Report.t
(** The PPA report of the paper's 1024-MAC array on a bank, from its shape
    alone: equal to the report [run (make g)] returns, for any bank of [g]. *)

val run : t -> int array -> int array * Report.t
(** Execute one GEMV the way the array would (tile by tile), returning the
    half-unit results — always equal to {!Gemv.reference} — and the PPA
    report under {!Hnlpu_gates.Tech.n5}.  Rejects bad activations with
    {!Gemv.check_activations}. *)
