(** The common workload of the embedding-methodology comparison (paper §6.3):
    a matrix–vector product [y = x . W] with FP4 weights and integer
    activations.

    Weights are E2M1 codes; activations are signed two's-complement integers
    of [act_bits] bits.  All three machines ({!Mac_array},
    {!Cell_embedding}, {!Metal_embedding}) must return exactly
    {!reference}'s output: the dot products in half-units
    (LSB = 0.5, because every E2M1 value is a multiple of 0.5). *)

type t = private {
  codes : Bytes.t;
      (** The weight matrix, one E2M1 code per byte, row-major: byte
          [o * in_features + i] is the weight from input [i] to output
          neuron [o].  The paper benchmark's 1024 x 128 matrix costs
          16,386 words (131,072 bytes, one padding word and the header),
          16,391 with this record; as an [Fp4.t array array] it cost
          131,334.  Read it through {!code}, or by byte in this library's
          hot loops. *)
  in_features : int;
  out_features : int;
  act_bits : int;  (** Two's-complement width of activations (paper: 8). *)
}

val make : weights:Hnlpu_fp4.Fp4.t array array -> act_bits:int -> t
(** [weights.(o).(i)]: one row per output neuron, packed into {!codes}.
    Validates rectangularity and positive dimensions. *)

val random : Hnlpu_util.Rng.t -> in_features:int -> out_features:int ->
  act_bits:int -> t
(** Uniform random E2M1 codes — synthetic stand-in for real model weights
    (see DESIGN.md substitutions).  One [Rng.int rng 16] draw per weight,
    row by row. *)

val code : t -> int -> int -> Hnlpu_fp4.Fp4.t
(** [code t o i] is the weight from input [i] to output neuron [o]. *)

val random_activations : Hnlpu_util.Rng.t -> t -> int array
(** Uniform activations over the full [act_bits] range. *)

val paper_benchmark : Hnlpu_util.Rng.t -> t
(** The paper's operator benchmark: 1x1024 input against a 1024x128 FP4
    weight matrix ("typical dimension in an LLM attention block"). *)

val check_activations : caller:string -> t -> int array -> unit
(** [check_activations ~caller t x] raises [Invalid_argument], with a
    message starting ["<caller>: "], unless [x] has [in_features] elements
    and each fits in [act_bits] (two's complement).  Every machine's [run]
    calls it first, so all three reject the same inputs. *)

val reference : t -> int array -> int array
(** [reference t x]: exact dot products in half-units,
    [y.(o) = sum_i to_half_units (code t o i) * x.(i)]. *)

val reference_float : t -> int array -> float array
(** Same, in real units (half-units / 2). *)

val total_macs : t -> int
