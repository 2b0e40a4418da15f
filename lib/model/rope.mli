(** Rotary position embedding (RoPE), applied to query and key heads.

    gpt-oss, like other Llama-style models, encodes position by rotating
    successive pairs of head dimensions by position-dependent angles.  This
    is part of the VEX unit's nonlinear repertoire in HNLPU; here it is the
    functional reference. *)

val angles : head_dim:int -> pos:int -> float array
(** The rotation of position [pos], base frequency 10000: [cos] and
    [sin] of pair [i]'s angle at [2i] and [2i + 1]; [head_dim] must be
    even.  A forward computes it once per token and every
    layer reuses it. *)

val rotate : float array -> Hnlpu_tensor.Vec.t -> unit
(** [rotate angles v] rotates, in place, a flat concatenation of heads
    (length a multiple of [Array.length angles]) by {!angles}. *)
