(** Dense float vectors — the activation substrate of the reference
    transformer.  Everything is plain [float array]; functions are pure
    unless suffixed [_inplace]. *)

type t = float array

val zeros : int -> t

val gaussian : Hnlpu_util.Rng.t -> int -> t
(** Standard normal entries. *)

val add : t -> t -> t
(** Element-wise sum; raises on length mismatch. *)

val add_inplace : t -> t -> unit
(** [add_inplace dst src]: dst += src. *)

val sub : t -> t -> t

val scale : float -> t -> t

val mul : t -> t -> t
(** Element-wise (Hadamard) product. *)

val dot : t -> t -> float

val norm2 : t -> float
(** Euclidean norm. *)

val max_abs_diff : t -> t -> float

val softmax : t -> t
(** Numerically stable softmax (max-subtracted). *)

val softmax_masked : t -> valid:int -> t
(** Softmax over the first [valid] entries; the rest are zero — used for
    causal attention over a growing context. *)

val rmsnorm : gain:t -> t -> t
(** Root-mean-square normalization: [x / rms x * gain] (paper §4.1 lists
    RMSNorm among the hardwired nonlinearities). *)

val silu : t -> t
(** x * sigmoid x. *)

val swiglu : gate:t -> up:t -> t
(** [silu gate * up] — the SwiGLU combination used by gpt-oss experts. *)

val argmax : t -> int

val top_k : int -> t -> (int * float) list
(** Indices and values of the k largest entries, descending.  Ties resolve
    to the lower index. *)
