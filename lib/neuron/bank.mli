(** The structure of one bank of Hardwired Neurons: all its PPA depends on.

    Paper §3.1: the silicon is weight-independent, and changing a weight
    only re-routes a wire.  So a bank's area, energy and cycles follow from
    its shape and POPCNT region capacity ({!Metal_embedding}) or from the
    multiset of its codes ({!Cell_embedding}), never from which input
    carries which code.  Each machine's [ppa] prices this value, so
    Figures 12 and 13 build no machine. *)

type t = private {
  in_features : int;
  out_features : int;
  act_bits : int;  (** Bit-planes streamed per GEMV. *)
  capacity : int;  (** Ports per POPCNT region, by {!region_capacity}. *)
  histogram : int array;  (** [histogram.(c)]: weights with E2M1 code [c]. *)
  load : int array;  (** [load.(c)]: the most wires one neuron routes to region [c]. *)
}

val regions : int
(** POPCNT regions per neuron, one per E2M1 code: 16. *)

val region_capacity : slack:float -> int -> int
(** [region_capacity ~slack n] = ceil(ceil(n/16) x slack), the ports per
    region of an [n]-input neuron: the balanced share oversized so that
    imbalanced code distributions still fit (paper: "accumulators should
    be made with sufficient slackness"; spare ports are grounded). *)

val of_gemv : ?slack:float -> Gemv.t -> t
(** One pass over the codes; [slack] defaults to 2.0.  Raises
    [Invalid_argument] if [slack] is below 1.0, or, naming the neuron, the
    region, its wires and the capacity, if a region overflows. *)
