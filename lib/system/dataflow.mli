(** Value-level simulation of the 16-chip HNLPU dataflow (paper §5 and
    Appendix A).

    Every projection is computed from per-chip weight *slices* only (the
    {!Mapping} layout), stitched together with the {!Hnlpu_noc.Collective}
    operations the Interconnect Engine provides:

    + QKV: per-chip partial products; a column all-reduce for Q, column
      reduces to the KV owner for K and V (Fig. 10-II/III);
    + KV cache: position [l] stored on chip [(l mod 4)] of its column;
    + attention: per-chip streaming softmax over local positions, column
      exchange of (max, sum) statistics and partial outputs (Fig. 10-IV/V);
    + output projection: row all-reduce of partial sums, column all-gather
      (Fig. 10-VI);
    + MoE: replicated router, experts resident on [expert mod 16], final
      all-chip all-reduce (Fig. 10-VII/VIII/IX).

    The equivalence test: [forward] produces the same logits as the
    unpartitioned {!Hnlpu_model.Transformer} on the same weights, up to
    floating-point reassociation in the distributed softmax. *)

type t

val create : Hnlpu_model.Weights.t -> t
(** Slices the weights across the 16 chips.  Raises if the config is not
    mappable (see {!Mapping.check_mappable}). *)

val position : t -> int

val forward : t -> token:int -> Hnlpu_tensor.Vec.t
(** One decode step through the distributed dataflow; returns logits. *)

type collective_counts = {
  col_all_reduce : int;  (** Q, softmax statistics and partial O. *)
  col_reduce : int;  (** K and V, to the KV owner. *)
  row_all_reduce : int;  (** Xo. *)
  col_all_gather : int;  (** Xo. *)
  all_chip_all_reduce : int;  (** MoE combine. *)
}

val collectives : t -> collective_counts
(** Cumulative collectives performed, folded by kind and group from one
    tally per {!Layer_program} entry.  Each collective counts once per
    column or row it runs on (the statistics and partial-O exchanges once
    per column, however many query heads they carry), so a MoE layer adds
    12 column all-reduces, 8 column reduces, 4 row all-reduces, 4 column
    all-gathers and 1 all-chip all-reduce. *)

val kv_positions_on_chip : t -> chip:Hnlpu_noc.Topology.chip -> layer:int -> int
(** Cached positions a chip holds — checks the mod-4 striping balance. *)
