(** LSB-first bit-serialization of activation vectors (paper §3.1, Step 2).

    Hardwired-Neurons accept activations one bit-plane per clock cycle,
    least-significant bit first, so that the per-weight accumulation reduces
    to a POPCNT of single wires.  Activations are signed two's-complement
    integers of a fixed width; the final (sign) plane carries negative
    weight [-2^(bits-1)].

    This module is bit-exact: [reconstruct (planes v) = v].

    Planes come in two views.  The byte view ({!plane}) spends one byte per
    element; the CSA model, the cycle-level [Me_rtl] model and the
    round-trip tests read it.  The packed view ({!packed_planes}) puts
    {!word_bits} elements in each int word, so one POPCNT region becomes
    [popcount (plane land mask)] over whole words — what the functional
    Metal-Embedding machine runs. *)

type plane = Bytes.t
(** Byte view: one bit-plane over an n-element vector, one byte per element
    (0 or 1). *)

val min_int_for : int -> int
val max_int_for : int -> int
(** Representable range for a given two's-complement width. *)

val check_range : ?caller:string -> bits:int -> int array -> unit
(** Raise [Invalid_argument] if [bits] is outside [2..32] or any element
    does not fit in [bits].  The message starts with [caller] (default
    ["Bitserial"]). *)

val planes : bits:int -> int array -> plane array
(** [planes ~bits v] is the [bits] bit-planes of [v], index 0 = LSB. *)

val plane_get : plane -> int -> int
(** Bit of element [i] in a plane: 0 or 1. *)

val plane_weight : bits:int -> int -> int
(** Arithmetic weight of plane [b]: [2^b], except [-2^(bits-1)] for the sign
    plane [b = bits-1]. *)

val reconstruct : bits:int -> plane array -> int array
(** Inverse of [planes]. *)

val popcount_plane : plane -> int
(** Number of set bits in a plane — what one POPCNT region computes in one
    cycle when every input wire is routed to it. *)

val dot_by_planes : bits:int -> weights:int array -> int array -> int
(** [dot_by_planes ~bits ~weights v]: evaluate [Σ weights.(i) * v.(i)] the
    bit-serial way — per plane, sum the weights of the set elements, then
    combine planes with their arithmetic weights.  Ground truth for the HN
    machine tests. *)

(** {1 Packed view} *)

val word_bits : int
(** Elements per packed word: 62, so every word stays a non-negative int. *)

val words_for : int -> int
(** [words_for n]: packed words per plane of an [n]-element vector. *)

val set_element : int array -> pos:int -> int -> unit
(** [set_element packed ~pos i] sets element [i]'s bit in the packed
    vector whose first word is [packed.(pos)]: bit [i mod word_bits] of
    word [pos + i / word_bits].  This layout is shared by the planes and by
    any mask meant to be [land]ed with them. *)

val packed_planes : bits:int -> int array -> int array
(** [packed_planes ~bits v]: the [bits] planes of [v] (index 0 = LSB) in
    the packed view, plane [b] in words [b * words_for n] to
    [(b + 1) * words_for n - 1].  Checks the range as {!planes} does. *)

val popcount : int -> int
(** Set bits of a word (SWAR; no allocation). *)

val masked_dot : int array -> pos:int -> int array -> mask_pos:int -> len:int -> int
(** [masked_dot a ~pos masks ~mask_pos ~len]: the packed plane in words
    [a.(pos)] .. [a.(pos + len - 1)] dotted with signed 4-bit weights
    given bit by bit.  Word [k] pairs with the eight masks from
    [masks.(mask_pos + 8k)]: [p_m] ([m < 4]) and then [n_m], the elements
    whose weight is positive (negative) with bit [m] of its magnitude
    set.  Returns [Σ_k Σ_m 2^m (popcount (a_k land p_m) - popcount (a_k land n_m))]
    and allocates nothing.  Raises [Invalid_argument] if either word
    range is out of bounds. *)
