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

(* Nearest code by quarter units.  The 7 midpoints between magnitudes,
   0.25 0.75 1.25 1.75 2.5 3.5 5, are the integers 1 3 5 7 10 14 20 in
   q = 4 * |x|; a tie goes to the even code (smaller mantissa bit), so
   q must pass 1, 5, 10 and 20 strictly and reach 3, 7 and 14.  For
   k = floor q, entry [2k] is the code of a q strictly between k and
   k + 1 (it has passed every midpoint <= k) and entry [2k + 1] the code
   of q = k (it has passed the strict midpoints < k and the others <= k).
   From q = 24 (magnitude 6) on, every entry is 7. *)
let by_quarter =
  let strict = [ 1; 5; 10; 20 ] and reached = [ 3; 7; 14 ] in
  let count p l = List.length (List.filter p l) in
  Array.init 50 (fun i ->
      let k = i / 2 in
      let exact = i land 1 = 1 in
      count (fun m -> m < k || (m = k && not exact)) strict + count (fun m -> m <= k) reached)

(* [of_float] past its NaN test. *)
let[@inline] of_non_nan x =
  (* Scaling by 4 is exact, and an overflow to infinity saturates like
     any q >= 24. *)
  let q = Float.abs x *. 4.0 in
  let q = if q < 24.0 then q else 24.0 in
  let k = int_of_float q in
  let c = Array.unsafe_get by_quarter ((2 * k) + Bool.to_int (float_of_int k = q)) in
  c lor (8 * Bool.to_int (x < 0.0) * Bool.to_int (c <> 0))

let[@inline] of_float x =
  if Float.is_nan x then invalid_arg "Fp4.of_float: nan";
  of_non_nan x

(* The element loop inlines [of_non_nan] here, in the module that owns
   it: called from another module (which sees this one through -opaque)
   every call would box its float argument.  x / 2^e and x * 2^-e are the
   same correctly rounded quotient whenever 2^-e is a float, that is for
   e >= -1023; only blocks of subnormal magnitude get a lower e, and
   there [ldexp] scales exactly. *)
let quantize_slice xs ~lo ~len ~scale_exp =
  let out = Bytes.create len in
  if scale_exp >= -1023 then begin
    let inv = Float.ldexp 1.0 (-scale_exp) in
    for k = 0 to len - 1 do
      Bytes.unsafe_set out k (Char.unsafe_chr (of_non_nan (xs.(lo + k) *. inv)))
    done
  end
  else
    for k = 0 to len - 1 do
      Bytes.unsafe_set out k (Char.unsafe_chr (of_non_nan (Float.ldexp xs.(lo + k) (-scale_exp))))
    done;
  out

let all = List.init 16 (fun i -> i)

let unique_magnitudes = Array.copy magnitudes

let equal = Int.equal

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
