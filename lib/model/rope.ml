(* cos and sin of every pair's angle, interleaved: one [**], [cos] and
   [sin] per pair per token, shared by every head, layer and column. *)
let angles ~head_dim ~pos =
  if head_dim mod 2 <> 0 then invalid_arg "Rope.angles: odd head_dim";
  let a = Array.create_float head_dim in
  for i = 0 to (head_dim / 2) - 1 do
    let freq = 10_000.0 ** (-.(2.0 *. float_of_int i) /. float_of_int head_dim) in
    let angle = float_of_int pos *. freq in
    a.(2 * i) <- cos angle;
    a.((2 * i) + 1) <- sin angle
  done;
  a

let rotate angles v =
  let head_dim = Array.length angles in
  let n = Array.length v in
  if head_dim = 0 || n mod head_dim <> 0 then invalid_arg "Rope.rotate: length";
  for h = 0 to (n / head_dim) - 1 do
    for i = 0 to (head_dim / 2) - 1 do
      let j = (h * head_dim) + (2 * i) in
      let c = angles.(2 * i) and s = angles.((2 * i) + 1) in
      let a = v.(j) and b = v.(j + 1) in
      v.(j) <- (a *. c) -. (b *. s);
      v.(j + 1) <- (a *. s) +. (b *. c)
    done
  done
