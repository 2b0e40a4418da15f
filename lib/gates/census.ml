let nand2 = 4
let xor2 = 8
let mux2 = 12
let full_adder = 28
let half_adder = 14
let flipflop = 24

let ripple_adder w = w * full_adder

let register w = w * flipflop

let csa_cost (s : Hnlpu_fp4.Csa.stats) =
  (s.full_adders * full_adder)
  + (s.half_adders * half_adder)
  + ripple_adder s.cpa_width

let multiplier a b =
  (* Partial products: a*b AND gates; reduction: ~(a-2) rows of b-bit CSA;
     final CPA of a+b bits. *)
  let partial_products = a * b * nand2 in
  let reduction = max 0 (a - 2) * b * full_adder in
  partial_products + reduction + ripple_adder (a + b)

let fp4_constant_multiplier ~input_bits code =
  let open Hnlpu_fp4 in
  let half_units = abs (Fp4.to_half_units code) in
  let shift_add_cost =
    (* Cost of computing |c| * x for c in half-units of the magnitude.
       1,2,4,8,12(= 6): powers of two and 12 = 8+4 -> one adder;
       3 (=1.5), 6 (=3) and 12 (=6) all have two set bits -> one adder. *)
    let popcount n =
      let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + (n land 1)) in
      go n 0
    in
    match popcount half_units with
    | 0 -> 0 (* multiply by zero: tie to ground *)
    | 1 -> 0 (* power of two: pure wiring *)
    | 2 -> ripple_adder (input_bits + 3)
    | _ -> 2 * ripple_adder (input_bits + 3)
  in
  let sign_cost =
    (* Conditional inversion only: the +1 of two's complement is injected as
       a free carry-in of the downstream adder tree. *)
    if Fp4.is_negative code then (input_bits + 4) * xor2 else 0
  in
  shift_add_cost + sign_cost

let fp4_constant_multiplier_avg ~input_bits =
  let total =
    List.fold_left
      (fun acc c -> acc + fp4_constant_multiplier ~input_bits c)
      0 Hnlpu_fp4.Fp4.all
  in
  float_of_int total /. 16.0

let popcount_port_transistors = 8

let popcount_region ~ports =
  let rec bits k acc = if k = 0 then acc else bits (k lsr 1) (acc + 1) in
  (ports * popcount_port_transistors) + ripple_adder (bits ports 0)

let fp4_full_mac ~input_bits =
  (* Significand product (2b x input), exponent shift network (two mux
     levels) and sign logic; lands in the paper's "200+ transistors" band. *)
  multiplier 2 input_bits + (2 * mux2) + ((input_bits + 4) * xor2)
