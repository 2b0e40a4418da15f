(** FP4 (E2M1) weight format.

    gpt-oss 120B ships 4-bit weights; the paper hardwires them.  E2M1 is the
    OCP Microscaling element format: 1 sign bit, 2 exponent bits, 1 mantissa
    bit, no infinities and no NaN.  The 16 codes decode to
    {v 0, 0.5, 1, 1.5, 2, 3, 4, 6 v} and their negations (+0 and -0 both
    decode to [0.]).

    A value of this type is the raw 4-bit code.  The HN architecture keys its
    POPCNT accumulators on this code: all inputs multiplied by the same code
    are routed to the same accumulator region (paper §3.1, Figure 5). *)

type t = private int
(** A 4-bit code in [\[0, 15\]]. *)

val of_code : int -> t
(** [of_code c] validates [0 <= c < 16]. *)

val code : t -> int

val zero : t

val to_float : t -> float
(** Exact decoded value. *)

val of_float : float -> t
(** Round-to-nearest-even quantization onto the E2M1 grid; saturates at
    magnitude 6, infinities included.  [-0.] and values rounding to zero
    map to +0.  Raises [Invalid_argument] on NaN. *)

val quantize_slice : float array -> lo:int -> len:int -> scale_exp:int -> Bytes.t
(** [quantize_slice xs ~lo ~len ~scale_exp] is the [len] codes
    [of_float (xs.(lo + k) /. 2. ** scale_exp)], one byte each, written
    without a boxed float per element: the MXFP4 block quantizer's element
    loop ({!Blockscale}). *)

val neg : t -> t
(** Sign-bit flip.  [neg zero] is the -0 code, which still decodes to 0. *)

val is_negative : t -> bool

val all : t list
(** All 16 codes, in code order. *)

val unique_magnitudes : float array
(** The 8 distinct non-negative representable magnitudes, ascending. *)

val equal : t -> t -> bool

(** {1 Fixed-point view}

    The HN datapath multiplies integer popcounts by integer constants.  Every
    E2M1 value is an integer multiple of 0.5, so a lossless integer view with
    scale 1/2 exists: [to_half_units] is in [\[-12, 12\]]. *)

val to_half_units : t -> int
(** [to_half_units t] = [2 * to_float t], exactly. *)

val of_half_units : int -> t option
(** Inverse of [to_half_units] when the integer is representable. *)
