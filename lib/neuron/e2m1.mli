(** The E2M1 weight bytes' half-unit values, read by the neuron machines
    without a per-MAC call. *)

val half_units : int array
(** [half_units.(c)] is [Fp4.to_half_units (Fp4.of_code c)], [c < 16]. *)

val dot : Bytes.t -> int -> int array -> int -> int -> int
(** [dot codes k x i len] is [Σ_{j < len} half_units(codes[k + j]) * x.(i + j)],
    summed in an order of its choosing (integer addition is exact).  The
    caller guarantees both ranges are in bounds. *)
