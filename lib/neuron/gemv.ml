open Hnlpu_util
open Hnlpu_fp4

type t = {
  codes : Bytes.t;
  in_features : int;
  out_features : int;
  act_bits : int;
}

let check_dims ~in_features ~out_features =
  if out_features <= 0 then invalid_arg "Gemv.make: no output rows";
  if in_features <= 0 then invalid_arg "Gemv.make: no input columns"

let check_act_bits act_bits =
  if act_bits < 2 || act_bits > 16 then invalid_arg "Gemv.make: act_bits out of range"

let make ~weights ~act_bits =
  let out_features = Array.length weights in
  let in_features = if out_features = 0 then 0 else Array.length weights.(0) in
  check_dims ~in_features ~out_features;
  Array.iter
    (fun row ->
      if Array.length row <> in_features then
        invalid_arg "Gemv.make: ragged weight matrix")
    weights;
  check_act_bits act_bits;
  let codes =
    Bytes.init (out_features * in_features) (fun k ->
        Char.chr (Fp4.code weights.(k / in_features).(k mod in_features)))
  in
  { codes; in_features; out_features; act_bits }

(* Byte [k] of the row-major codes is the [k]th draw. *)
let random rng ~in_features ~out_features ~act_bits =
  check_dims ~in_features ~out_features;
  check_act_bits act_bits;
  let codes = Bytes.create (out_features * in_features) in
  for k = 0 to Bytes.length codes - 1 do
    Bytes.unsafe_set codes k (Char.unsafe_chr (Rng.int rng 16))
  done;
  { codes; in_features; out_features; act_bits }

let code t o i =
  if o < 0 || o >= t.out_features || i < 0 || i >= t.in_features then
    invalid_arg "Gemv.code: index out of range";
  Fp4.of_code (Bytes.get_uint8 t.codes ((o * t.in_features) + i))

let random_activations rng t =
  let lo = Bitserial.min_int_for t.act_bits in
  let span = (1 lsl t.act_bits) - 1 in
  Array.init t.in_features (fun _ -> lo + Rng.int rng (span + 1))

let paper_benchmark rng = random rng ~in_features:1024 ~out_features:128 ~act_bits:8

let check_activations ~caller t x =
  let n = Array.length x in
  if n <> t.in_features then
    invalid_arg
      (Printf.sprintf "%s: %d activations, expected in_features = %d" caller n
         t.in_features);
  Bitserial.check_range ~caller ~bits:t.act_bits x

let reference t x =
  let n = t.in_features in
  if Array.length x <> n then invalid_arg "Gemv.reference: activation length mismatch";
  let out = Array.make t.out_features 0 in
  let acc = ref 0 in
  for o = 0 to t.out_features - 1 do
    let row = o * n in
    acc := 0;
    for i = 0 to n - 1 do
      acc := !acc + (E2m1.half_units.(Char.code (Bytes.unsafe_get t.codes (row + i))) * x.(i))
    done;
    out.(o) <- !acc
  done;
  out

let reference_float t x =
  Array.map (fun h -> float_of_int h /. 2.0) (reference t x)

let weight_bits t = t.in_features * t.out_features * 4

let total_macs t = t.in_features * t.out_features
