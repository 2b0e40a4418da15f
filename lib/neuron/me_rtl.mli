(** Cycle-accurate register-transfer simulation of the Metal-Embedding
    datapath (the single-chip "cycle-level simulator" of §6.1, at neuron
    granularity).

    {!Metal_embedding} computes the GEMV functionally; this machine steps
    the pipeline clock by clock with explicit stage registers:

    {v
      cycle t   : DES shifts plane t onto the input wires
      cycle t+1 : POPCNT registers the 16 region counts of plane t
      cycle t+2 : multiply + 16-way tree register the plane sum
      cycle t+3 : the shifting accumulator folds plane t in
    v}

    so a B-bit activation finishes at cycle B+3.  Every architectural
    register is observable per cycle, and two invariants are
    property-tested: (1) after the drain, every accumulator equals the
    reference dot product; (2) at every cycle, each accumulator equals the
    partial dot product over the planes it has folded in — the pipeline
    never holds a value that is not a true prefix sum.

    No tool or example calls this module; it stays as the §6.1 cycle-level
    model, which test_rtl checks against {!Gemv.reference} and
    {!Metal_embedding}. *)

type cycle_state = {
  cycle : int;
  plane_in : int option;          (** Plane index entering the DES. *)
  region_counts : int array array; (** [neuron].[region], POPCNT stage. *)
  plane_sums : int array;          (** Per-neuron multiply+tree stage. *)
  accumulators : int array;        (** Per-neuron running dot (half-units). *)
  planes_folded : int;             (** How many planes the accumulator holds. *)
}

type t

val make : ?slack:float -> Gemv.t -> t
(** Raises {!Bank.of_gemv}'s [Invalid_argument] when a region overflows. *)

val run : t -> int array -> cycle_state list * int array
(** Full trace (one state per cycle, in order) and the final outputs —
    always equal to {!Gemv.reference}.  Rejects bad activations with
    {!Gemv.check_activations}. *)

val total_cycles : t -> int
(** act_bits + 3 (pipeline depth). *)

val partial_reference : Gemv.t -> int array -> planes:int -> int array
(** Ground truth for invariant (2): the dot products computed over only
    the lowest [planes] bit-planes of the activations. *)
