(** Metal-Embedding (ME) — the Hardwired-Neuron machine (paper §3.1,
    Figures 4-2 and 5).

    Activations arrive bit-serially, LSB first.  Each input wire is routed
    (by the M8–M11 metal layers) to the POPCNT region of its weight's E2M1
    code.  Here the routing is stored as one bitmask per (neuron, region)
    over the packed activation planes of {!Hnlpu_fp4.Bitserial}: a weight
    is nothing but which mask its input's bit lands in.  Per bit-plane the
    machine:

    + counts the set wires of each region (POPCNT: [popcount (plane land
      mask)] over whole words),
    + multiplies each count by the region's constant (16 multipliers),
    + reduces the 16 products with a small adder tree, and
    + accumulates the plane sums with weights [2^b] (negative for the sign
      plane).

    The silicon is weight-independent: changing a weight only re-routes a
    wire, which is what makes the Sea-of-Neurons mask sharing possible.

    [run] is bit-exact against {!Gemv.reference} for all weights and
    activations — the central functional claim, covered by property tests. *)

type t

val make : ?slack:float -> Gemv.t -> t
(** Routes the wires of the bank {!Bank.of_gemv} [?slack] describes, and
    raises its [Invalid_argument] when a region overflows. *)

val ppa : Bank.t -> Report.t
(** The 5 nm PPA report of a bank, from its shape and region capacity
    alone: equal to [report (make g)] for the bank of [g]. *)

val run : t -> int array -> int array * Report.t
(** Execute the bit-serial machine; returns half-unit results and the 5 nm
    PPA report.  Rejects bad activations with {!Gemv.check_activations}. *)

val report : t -> Report.t
