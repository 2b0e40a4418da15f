(* exp(x) = 2^(x * log2 e); split x*log2e into integer k and fraction f in
   [0,1); 2^f from a 64-entry LUT with linear interpolation. *)

let lut_bits = 6
let lut_size = 1 lsl lut_bits

let exp2_lut =
  Array.init (lut_size + 1) (fun i ->
      2.0 ** (float_of_int i /. float_of_int lut_size))

let exp2_hw x =
  let k = floor x in
  let f = x -. k in
  let idx = f *. float_of_int lut_size in
  let i = int_of_float idx in
  let frac = idx -. float_of_int i in
  let v = exp2_lut.(i) +. (frac *. (exp2_lut.(i + 1) -. exp2_lut.(i))) in
  ldexp v (int_of_float k)

let exp_hw x =
  let x = Float.max (-87.0) (Float.min 87.0 x) in
  exp2_hw (x *. 1.4426950408889634 (* log2 e *))

(* rsqrt: seed from exponent halving, then Newton y' = y (1.5 - 0.5 x y^2). *)
let rsqrt_hw x =
  if x <= 0.0 then invalid_arg "Vex_sim.rsqrt_hw: non-positive input";
  let m, e = frexp x in
  (* x = m * 2^e with m in [0.5, 1): 1/sqrt(x) ~ 2^(-e/2) / sqrt(m); the
     linear term seeds 1/sqrt(m) within ~10%, which two Newton steps
     square down below 1e-3. *)
  let seed =
    (1.1774 -. (0.40 *. (m -. 0.75))) *. (2.0 ** (-.float_of_int e /. 2.0))
  in
  let step y = y *. (1.5 -. (0.5 *. x *. y *. y)) in
  step (step seed)

let sigmoid_hw x =
  if x >= 0.0 then 1.0 /. (1.0 +. exp_hw (-.x))
  else begin
    let e = exp_hw x in
    e /. (1.0 +. e)
  end

let silu_hw x = x *. sigmoid_hw x

let softmax_hw v =
  if Array.length v = 0 then invalid_arg "Vex_sim.softmax_hw: empty";
  let m = Array.fold_left Float.max neg_infinity v in
  let e = Array.map (fun x -> exp_hw (x -. m)) v in
  let z = Array.fold_left ( +. ) 0.0 e in
  Array.map (fun x -> x /. z) e

let rmsnorm_hw ~gain v =
  if Array.length gain <> Array.length v then
    invalid_arg "Vex_sim.rmsnorm_hw: length mismatch";
  let n = float_of_int (Array.length v) in
  let ms = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 v /. n in
  let inv = rsqrt_hw (ms +. 1e-6) in
  Array.mapi (fun i x -> x *. inv *. gain.(i)) v

let swiglu_hw ~gate ~up =
  if Array.length gate <> Array.length up then
    invalid_arg "Vex_sim.swiglu_hw: length mismatch";
  Array.mapi (fun i g -> silu_hw g *. up.(i)) gate

let max_rel_error over f g ~lo ~hi ~samples =
  if samples < 2 then invalid_arg (over ^ ": need samples >= 2");
  let worst = ref 0.0 in
  for i = 0 to samples - 1 do
    let x = lo +. ((hi -. lo) *. float_of_int i /. float_of_int (samples - 1)) in
    let reference = g x in
    if Float.abs reference > 1e-300 then
      worst := Float.max !worst (Float.abs ((f x -. reference) /. reference))
  done;
  !worst

let max_rel_error_exp ~lo ~hi ~samples =
  max_rel_error "Vex_sim.max_rel_error_exp" exp_hw exp ~lo ~hi ~samples

let max_rel_error_rsqrt ~lo ~hi ~samples =
  max_rel_error "Vex_sim.max_rel_error_rsqrt" rsqrt_hw
    (fun x -> 1.0 /. sqrt x)
    ~lo ~hi ~samples

