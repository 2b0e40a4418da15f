open Hnlpu_util
open Hnlpu_fp4

type t = {
  weights : Fp4.t array array;
  in_features : int;
  out_features : int;
  act_bits : int;
}

let make ~weights ~act_bits =
  let out_features = Array.length weights in
  if out_features = 0 then invalid_arg "Gemv.make: no output rows";
  let in_features = Array.length weights.(0) in
  if in_features = 0 then invalid_arg "Gemv.make: no input columns";
  Array.iter
    (fun row ->
      if Array.length row <> in_features then
        invalid_arg "Gemv.make: ragged weight matrix")
    weights;
  if act_bits < 2 || act_bits > 16 then
    invalid_arg "Gemv.make: act_bits out of range";
  { weights; in_features; out_features; act_bits }

let random rng ~in_features ~out_features ~act_bits =
  let weights =
    Array.init out_features (fun _ ->
        Array.init in_features (fun _ -> Fp4.of_code (Rng.int rng 16)))
  in
  make ~weights ~act_bits

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
  if Array.length x <> t.in_features then
    invalid_arg "Gemv.reference: activation length mismatch";
  Array.map
    (fun row ->
      let acc = ref 0 in
      for i = 0 to t.in_features - 1 do
        acc := !acc + (Fp4.to_half_units row.(i) * x.(i))
      done;
      !acc)
    t.weights

let reference_float t x =
  Array.map (fun h -> float_of_int h /. 2.0) (reference t x)

let weight_bits t = t.in_features * t.out_features * 4

let total_macs t = t.in_features * t.out_features
