(* [half_units.(c)] is [Fp4.to_half_units (Fp4.of_code c)]: the machines
   read each weight byte through it in place of a per-MAC call, which is
   never inlined across modules under -opaque.  The module is private to
   this library, so nothing outside it can write the table. *)
let half_units = Array.init 16 (fun c -> Hnlpu_fp4.Fp4.to_half_units (Hnlpu_fp4.Fp4.of_code c))

(* [of_byte.(b)] is [half_units.(b land 15)] for every byte [b], so [dot]
   may index it unchecked with any weight byte: [Gemv]'s constructors
   write only codes below 16, and a byte above 15 still reads inside the
   table. *)
let of_byte = Array.init 256 (fun b -> half_units.(b land 15))

let[@inline] weight codes k = Array.unsafe_get of_byte (Char.code (Bytes.unsafe_get codes k))

(* Σ_{j < len} half_units(codes[k + j]) * x.(i + j), in two independent
   accumulators: integer addition is exact in any order.  (Four spill to
   the stack under ocamlopt's register allocator and run slower.)  The
   caller guarantees both ranges are in bounds. *)
let dot codes k x i len =
  let a0 = ref 0 and a1 = ref 0 in
  for q = 0 to (len / 2) - 1 do
    let j = 2 * q in
    a0 := !a0 + (weight codes (k + j) * Array.unsafe_get x (i + j));
    a1 := !a1 + (weight codes (k + j + 1) * Array.unsafe_get x (i + j + 1))
  done;
  if len land 1 = 1 then
    a0 := !a0 + (weight codes (k + len - 1) * Array.unsafe_get x (i + len - 1));
  !a0 + !a1
