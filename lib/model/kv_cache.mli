(** Per-layer key/value cache for autoregressive decoding.

    Mirrors the HNLPU attention buffer's role (§4.3): stores one K and one V
    vector per KV head per past position.  The chip-level capacity/offload
    behaviour is modelled separately in {!Hnlpu_chip.Attention_buffer}; this
    module is the functional cache of the reference implementation. *)

type t

val create : Config.t -> t

val clear : t -> unit
(** Drop all cached positions. *)

val copy : t -> t
(** Deep copy: the flat K/V buffers are copied, so appends to either cache
    (which write into those buffers in place) never show in the other. *)

val length : t -> layer:int -> int
(** Number of cached positions for a layer. *)

val append : t -> layer:int -> k:Hnlpu_tensor.Vec.t -> v:Hnlpu_tensor.Vec.t -> unit
(** [k] and [v] are the flat (kv_heads * head_dim) projections for the new
    position. *)

val keys : t -> layer:int -> float array
(** The layer's flat K buffer, read in place by the attention loop: the key
    of KV head [h] at position [p] is the [head_dim] floats from offset
    [p * kv_dim + h * head_dim].  Only the first [length] positions are
    meaningful, and an {!append} may replace the buffer, so re-read it
    after every append. *)

val values : t -> layer:int -> float array
(** The V buffer, laid out like {!keys}. *)

val bytes_per_position : Config.t -> kv_bytes_per_element:int -> int
(** Cache growth per decoded token across all layers — sizes the attention
    buffer and the Figure 14 stall model. *)
