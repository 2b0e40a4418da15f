(** A linear layer executed on the Hardwired-Neuron (Metal-Embedding)
    machine — the bridge between the float reference model and the
    bit-serial hardware simulator.

    Construction quantizes each output neuron's weight column to E2M1 codes
    with a per-neuron scale, and builds the ME routing for the whole bank.
    Application quantizes the activation vector to int8 with a dynamic
    scale, streams it through {!Hnlpu_neuron.Metal_embedding} (bit-exact
    integer arithmetic) and rescales the results to floats.

    Integration tests run a tiny transformer layer both ways and bound the
    divergence by the quantization error — demonstrating the paper's
    claim that the hardwired fabric computes the same network. *)

type t

val of_matrix : Hnlpu_tensor.Mat.t -> t
(** Quantize a (in_features, out_features) float matrix for 8-bit
    activations, with POPCNT region slack 8 — per-neuron max scaling
    concentrates codes, so small banks need generous slack. *)

val apply : t -> Hnlpu_tensor.Vec.t -> Hnlpu_tensor.Vec.t
(** Run one GEMV on the ME machine. *)

val apply_float : t -> Hnlpu_tensor.Vec.t -> Hnlpu_tensor.Vec.t
(** The same quantized weights applied in float arithmetic — isolates the
    activation-quantization error from the weight-quantization error. *)

val dequantized : t -> Hnlpu_tensor.Mat.t
(** The effective weight matrix after quantization. *)

val report : t -> Hnlpu_neuron.Report.t
(** PPA of the underlying ME bank. *)
