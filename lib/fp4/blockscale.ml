type t = { scale_exp : int; codes : Bytes.t }

let block_size = 32

let max_magnitude = 6.0 (* largest E2M1 value *)

(* [2.0 ** float_of_int e], exactly, including the underflow to 0 below
   2^-1074 that the scale search relies on. *)
let pow2 e = Float.ldexp 1.0 e

(* Largest power of two such that amax/2^e <= 6, found from a log estimate
   and corrected step by step.  Only block maxima below 6 * 2^-126 take
   this path: there the result may fall under -126, by an amount that
   depends on the rounding of [log]. *)
let search_scale_exp amax =
  let e = ref (int_of_float (Float.ceil (log (amax /. max_magnitude) /. log 2.0))) in
  (* Guard against rounding of the log. *)
  while amax /. pow2 !e > max_magnitude do
    incr e
  done;
  while !e > -126 && amax /. pow2 (!e - 1) <= max_magnitude do
    decr e
  done;
  !e

let tiny_amax = max_magnitude *. pow2 (-126)

(* The smallest e >= -126 with amax <= 6 * 2^e, in closed form.  For
   amax >= 6 * 2^-126, a normal float 1.m * 2^(E - 1023): 6 * 2^e is
   1.5 * 2^(e + 2), so e = E - 1025, one more when 1.m > 1.5, that is
   when the mantissa field exceeds 2^51. *)
let scale_exp_of amax =
  if amax = 0.0 then 0
  else if amax < tiny_amax then search_scale_exp amax
  else begin
    let bits = Int64.to_int (Int64.bits_of_float amax) in
    let biased = (bits lsr 52) land 0x7ff and mantissa = bits land ((1 lsl 52) - 1) in
    biased - 1025 + Bool.to_int (mantissa > 1 lsl 51)
  end

let non_finite i =
  invalid_arg (Printf.sprintf "Blockscale.quantize: non-finite element at index %d" i)

(* Quantize [xs.(lo) .. xs.(lo + len - 1)] as one block. *)
let quantize_slice xs lo len =
  let amax = ref 0.0 in
  for i = lo to lo + len - 1 do
    let a = Float.abs xs.(i) in
    (* One comparison rejects both NaN and the infinities. *)
    if not (a <= Float.max_float) then non_finite i;
    if a > !amax then amax := a
  done;
  let scale_exp = scale_exp_of !amax in
  { scale_exp; codes = Fp4.quantize_slice xs ~lo ~len ~scale_exp }

let quantize_block xs =
  let n = Array.length xs in
  if n = 0 || n > block_size then
    invalid_arg "Blockscale.quantize_block: block must have 1..32 elements";
  quantize_slice xs 0 n

(* The 16 codes' decoded values, read by index so the element loops below
   make no call (and box no float) per element.  The bounds check stays:
   [t] is a plain record, so a hand-built block may hold a byte above 15. *)
let decoded = Array.init 16 (fun c -> Fp4.to_float (Fp4.of_code c))

let dequantize_into out pos { scale_exp; codes } =
  let s = pow2 scale_exp in
  for k = 0 to Bytes.length codes - 1 do
    out.(pos + k) <- s *. decoded.(Char.code (Bytes.unsafe_get codes k))
  done

let dequantize_block b =
  let out = Array.create_float (Bytes.length b.codes) in
  dequantize_into out 0 b;
  out

let quantize xs =
  let n = Array.length xs in
  let nblocks = (n + block_size - 1) / block_size in
  Array.init nblocks (fun b ->
      let lo = b * block_size in
      quantize_slice xs lo (min block_size (n - lo)))

let dequantize blocks =
  let n = Array.fold_left (fun n b -> n + Bytes.length b.codes) 0 blocks in
  let out = Array.create_float n in
  let pos = ref 0 in
  Array.iter
    (fun b ->
      dequantize_into out !pos b;
      pos := !pos + Bytes.length b.codes)
    blocks;
  out

let quantization_error xs =
  if Array.length xs = 0 then 0.0
  else begin
    let ys = dequantize (quantize xs) in
    let num = ref 0.0 and den = ref 0.0 in
    Array.iteri
      (fun i x ->
        let d = ys.(i) -. x in
        num := !num +. (d *. d);
        den := !den +. (x *. x))
      xs;
    if !den = 0.0 then 0.0 else sqrt (!num /. !den)
  end
