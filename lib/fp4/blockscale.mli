(** Microscaling (MX) block quantization.

    gpt-oss 120B's FP4 weights use MXFP4: each block of 32 consecutive
    elements shares one power-of-two scale (E8M0).  Within a hardwired
    neuron the scale is folded into the final multiplier stage, so the HN
    POPCNT fabric only ever sees the 16 element codes; this module provides
    the quantize/dequantize path used to prepare synthetic weights and to
    check end-to-end numerics. *)

type t = { scale_exp : int; codes : Bytes.t }
(** One quantized block: byte [i] of [codes] is element [i]'s E2M1 code,
    so its decoded value is
    [2. ** scale_exp *. Fp4.to_float (Fp4.of_code (Bytes.get_uint8 codes i))].
    A full block costs 9 words: 3 for the record and 6 for its 32 code
    bytes (header, four data words, one padding word); the array holding
    the blocks adds one more each. *)

val quantize_block : float array -> t
(** Quantize up to 32 floats (one MX block): picks the E8M0 scale so the
    largest magnitude maps near the top of the E2M1 range, then rounds each
    element.
    The scale exponent is the smallest [e >= -126] with
    [amax <= 6 *. 2. ** e]; a block whose maximum is below [6 * 2^-126]
    gets the exponent of a log-seeded search, which may go below -126.
    Raises [Invalid_argument] on an empty or oversized block, and
    [Invalid_argument "Blockscale.quantize: non-finite element at index i"]
    on a NaN or infinite element (the first, by index). *)

val dequantize_block : t -> float array

val quantize : float array -> t array
(** Quantize a whole vector block-by-block (last block may be short).
    Raises the same located [Invalid_argument] as {!quantize_block} on a
    non-finite element, with its index in the whole vector. *)

val dequantize : t array -> float array
(** [Array.concat] of {!dequantize_block} over the blocks, written into
    one array. *)

val quantization_error : float array -> float
(** RMS relative error of a quantize/dequantize round-trip; used by tests to
    bound the information loss on Gaussian data. *)
