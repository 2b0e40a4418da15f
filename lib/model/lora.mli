(** LoRA side-channel for post-deployment updates (paper §8, future work 4).

    The hardwired weights are immutable; the paper proposes adding ~1% of
    *field-programmable* HNs on a side channel carrying low-rank adapters:

      y = x . W_hardwired + scaling * (x . A) . B

    with A: (in, r), B: (r, out), r << min(in, out).  This module provides
    the adapter math, the composition with a hardwired {!Hn_linear} bank,
    and the area-overhead accounting that backs the "~1%" claim. *)

type t = {
  a : Hnlpu_tensor.Mat.t;      (** (in_features, rank) *)
  b : Hnlpu_tensor.Mat.t;      (** (rank, out_features) *)
}

val create :
  Hnlpu_util.Rng.t -> in_features:int -> out_features:int -> rank:int -> t
(** Standard init: A Gaussian, B zero (the adapter starts as identity). *)

val of_matrices : a:Hnlpu_tensor.Mat.t -> b:Hnlpu_tensor.Mat.t -> unit -> t

val rank : t -> int

val delta : t -> Hnlpu_tensor.Vec.t -> Hnlpu_tensor.Vec.t
(** The adapter contribution [scaling * (x . A) . B], scaling = 2. *)

val apply : t -> base:(Hnlpu_tensor.Vec.t -> Hnlpu_tensor.Vec.t) ->
  Hnlpu_tensor.Vec.t -> Hnlpu_tensor.Vec.t
(** [apply t ~base x = base x + delta t x] — compose with any base layer
    (the hardwired HN bank, or a float reference). *)

val merged : t -> Hnlpu_tensor.Mat.t -> Hnlpu_tensor.Mat.t
(** [W + scaling * A.B] — what a re-spin would hardwire; [apply] must agree
    with a gemv through this within float tolerance. *)

val parameter_overhead : t -> in_features:int -> out_features:int -> float
(** Adapter parameters / base parameters — the "~1%" budget check. *)

(** {1 System-level side channel} *)

module Side_channel : sig
  val supports_rank : Config.t -> rank:int -> bool
  (** Whether rank-r adapters on every projection of every layer fit. *)

  val max_rank : Config.t -> int
  (** Largest uniform rank the 1% budget supports (for gpt-oss: every
      attention and expert projection adapted). *)

  val area_overhead_mm2 : Config.t -> float
  (** Extra silicon per chip.  Field-programmable HNs need weight storage
    cells, ~10x the metal-embedded cost per parameter. *)
end
