open Hnlpu_tensor
open Hnlpu_fp4
open Hnlpu_neuron

type t = {
  machine : Metal_embedding.t;
  gemv : Gemv.t;
  neuron_scales : float array;  (** Per-output-neuron weight scale. *)
}

let quantize_neuron column =
  (* One scale per neuron: map the largest magnitude onto E2M1's 6.0. *)
  let amax = Array.fold_left (fun a x -> Float.max a (Float.abs x)) 0.0 column in
  let scale = if amax = 0.0 then 1.0 else amax /. 6.0 in
  (scale, Array.map (fun x -> Fp4.of_float (x /. scale)) column)

(* 8-bit activations; per-neuron max scaling concentrates codes, so small
   banks need generous POPCNT region slack (8). *)
let act_bits = 8

let of_matrix m =
  let out_features = Mat.cols m in
  let scales = Array.make out_features 1.0 in
  let weights =
    Array.init out_features (fun o ->
        let s, codes = quantize_neuron (Mat.col m o) in
        scales.(o) <- s;
        codes)
  in
  let gemv = Gemv.make ~weights ~act_bits in
  { machine = Metal_embedding.make ~slack:8.0 gemv; gemv; neuron_scales = scales }

let quantize_activations x =
  let amax = Array.fold_left (fun a v -> Float.max a (Float.abs v)) 0.0 x in
  let top = float_of_int (Hnlpu_fp4.Bitserial.max_int_for act_bits) in
  let scale = if amax = 0.0 then 1.0 else amax /. top in
  let q = Array.map (fun v -> int_of_float (Float.round (v /. scale))) x in
  (scale, q)

let apply t x =
  if Array.length x <> t.gemv.Gemv.in_features then
    invalid_arg "Hn_linear.apply: input length mismatch";
  let act_scale, q = quantize_activations x in
  let half_units, _report = Metal_embedding.run t.machine q in
  Array.mapi
    (fun o h -> float_of_int h /. 2.0 *. t.neuron_scales.(o) *. act_scale)
    half_units

let dequantized t =
  Mat.init ~rows:t.gemv.Gemv.in_features ~cols:t.gemv.Gemv.out_features (fun i o ->
      t.neuron_scales.(o) *. Fp4.to_float (Gemv.code t.gemv o i))

let apply_float t x = Mat.gemv (dequantized t) x

let report t = Metal_embedding.report t.machine
