type t = int

(* Decoded magnitudes indexed by the 3-bit exponent+mantissa field.
   E2M1: exp=00 is subnormal (0, 0.5); otherwise value = 2^(exp-1)*(1+m/2). *)
let magnitudes = [| 0.0; 0.5; 1.0; 1.5; 2.0; 3.0; 4.0; 6.0 |]

let of_code c =
  if c < 0 || c > 15 then invalid_arg "Fp4.of_code: code out of range";
  c

let code t = t

let zero = 0

let is_negative t = t land 8 <> 0

let magnitude_code t = t land 7

let to_float t =
  let m = magnitudes.(magnitude_code t) in
  if is_negative t then -.m else m

let neg t = t lxor 8

let[@inline] of_float x =
  if Float.is_nan x then invalid_arg "Fp4.of_float: nan";
  let m = Float.abs x in
  (* Nearest magnitude: the code counts the 7 midpoints [m] passes; a tie
     goes to the even code (smaller mantissa bit), hence [>] at a midpoint
     above an even code and [>=] above an odd one.  Counting instead of
     branching keeps the loop free of unpredictable jumps. *)
  let c =
    Bool.to_int (m > 0.25) + Bool.to_int (m >= 0.75) + Bool.to_int (m > 1.25)
    + Bool.to_int (m >= 1.75) + Bool.to_int (m > 2.5) + Bool.to_int (m >= 3.5)
    + Bool.to_int (m > 5.0)
  in
  c lor (8 * Bool.to_int (x < 0.0) * Bool.to_int (c <> 0))

(* [of_float] is inlined into the element loop here, in the module that
   owns it: called from another module (which sees this one through
   -opaque) every call would box its float argument. *)
let quantize_slice xs ~lo ~len ~scale_exp =
  let s = Float.ldexp 1.0 scale_exp in
  let out = Array.make len 0 in
  for k = 0 to len - 1 do
    out.(k) <- of_float (xs.(lo + k) /. s)
  done;
  out

let all = List.init 16 (fun i -> i)

let unique_magnitudes = Array.copy magnitudes

let equal = Int.equal

let pp fmt t = Format.fprintf fmt "%g" (to_float t)

(* [2 * to_float t] for each of the 16 codes. *)
let half_units =
  Array.init 16 (fun t ->
      let m = int_of_float (2.0 *. magnitudes.(magnitude_code t)) in
      if is_negative t then -m else m)

let to_half_units t = Array.unsafe_get half_units (t land 15)

let of_half_units h =
  let sign = h < 0 in
  let m = float_of_int (abs h) /. 2.0 in
  let rec find i =
    if i > 7 then None
    else if magnitudes.(i) = m then Some (if sign && i <> 0 then i lor 8 else i)
    else find (i + 1)
  in
  find 0
