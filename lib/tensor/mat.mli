(** Dense row-major float matrices.

    The reference transformer stores weight matrices as [(rows, cols)] =
    [(in_features, out_features)] so that [gemv m x] computes [x . m] — the
    orientation of the paper's dataflow figures ([Query = X * Wq]). *)

type t

val create : rows:int -> cols:int -> t
(** Zero-filled. *)

val of_arrays : float array array -> t
(** Rows from arrays; raises on ragged input. *)

val init : rows:int -> cols:int -> (int -> int -> float) -> t

val gaussian : ?std:float -> Hnlpu_util.Rng.t -> rows:int -> cols:int -> t
(** Entries i.i.d. N(0, std²); [std] defaults to [1/sqrt rows] (a standard
    initializer that keeps activations O(1) through deep stacks). *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float

val row : t -> int -> Vec.t
(** Copy of a row. *)

val col : t -> int -> Vec.t
(** Copy of a column. *)

val gemv : t -> Vec.t -> Vec.t
(** [gemv m x] = [x . m]: the input has [rows m] entries, the result
    [cols m]. *)

val gemv_into : t -> Vec.t -> xo:int -> Vec.t -> oo:int -> unit
(** [gemv_into m x ~xo out ~oo] adds [x.(xo ..) . m] to [out.(oo ..)], so
    partial products sum into one zeroed buffer in call order exactly as
    [gemv]'s results would. *)

val gemv_t : t -> Vec.t -> Vec.t
(** [gemv_t m x] = [m . x] (x has [cols m] entries). *)

val transpose : t -> t

val sub_cols : t -> lo:int -> len:int -> t
(** Column slice — used to split weight matrices across chip columns the
    way §5's mapping does. *)

val sub_rows : t -> lo:int -> len:int -> t

val map : (float -> float) -> t -> t

val to_arrays : t -> float array array

val max_abs_diff : t -> t -> float
