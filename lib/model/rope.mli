(** Rotary position embedding (RoPE), applied to query and key heads.

    gpt-oss, like other Llama-style models, encodes position by rotating
    successive pairs of head dimensions by position-dependent angles.  This
    is part of the VEX unit's nonlinear repertoire in HNLPU; here it is the
    functional reference. *)

val apply : head_dim:int -> pos:int -> Hnlpu_tensor.Vec.t -> Hnlpu_tensor.Vec.t
(** Rotate one head vector (length [head_dim], must be even) for position
    [pos], with base frequency 10000. *)

val apply_heads : head_dim:int -> pos:int -> Hnlpu_tensor.Vec.t -> Hnlpu_tensor.Vec.t
(** Apply to a flat concatenation of heads (length a multiple of
    [head_dim]). *)
