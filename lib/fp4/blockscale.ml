type t = { scale_exp : int; elements : Fp4.t array }

let block_size = 32

let max_magnitude = 6.0 (* largest E2M1 value *)

(* [2.0 ** float_of_int e], exactly, including the underflow to 0 below
   2^-1074 that the scale search relies on. *)
let pow2 e = Float.ldexp 1.0 e

(* Quantize [xs.(lo) .. xs.(lo + len - 1)] as one block. *)
let quantize_slice xs lo len =
  let amax = ref 0.0 in
  for i = lo to lo + len - 1 do
    let a = Float.abs xs.(i) in
    if a > !amax then amax := a
  done;
  let amax = !amax in
  let scale_exp =
    if amax = 0.0 then 0
    else begin
      (* Largest power of two such that amax/2^e <= 6. *)
      let e = ref (int_of_float (Float.ceil (log (amax /. max_magnitude) /. log 2.0))) in
      (* Guard against rounding of the log. *)
      while amax /. pow2 !e > max_magnitude do
        incr e
      done;
      while !e > -126 && amax /. pow2 (!e - 1) <= max_magnitude do
        decr e
      done;
      !e
    end
  in
  { scale_exp; elements = Fp4.quantize_slice xs ~lo ~len ~scale_exp }

let quantize_block xs =
  let n = Array.length xs in
  if n = 0 || n > block_size then
    invalid_arg "Blockscale.quantize_block: block must have 1..32 elements";
  quantize_slice xs 0 n

let dequantize_block { scale_exp; elements } =
  let s = pow2 scale_exp in
  Array.map (fun e -> s *. Fp4.to_float e) elements

let quantize xs =
  let n = Array.length xs in
  let nblocks = (n + block_size - 1) / block_size in
  Array.init nblocks (fun b ->
      let lo = b * block_size in
      quantize_slice xs lo (min block_size (n - lo)))

let dequantize blocks =
  Array.concat (Array.to_list (Array.map dequantize_block blocks))

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
