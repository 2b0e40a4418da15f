let apply ~head_dim ~pos v =
  if Array.length v <> head_dim then invalid_arg "Rope.apply: wrong length";
  if head_dim mod 2 <> 0 then invalid_arg "Rope.apply: odd head_dim";
  let out = Array.copy v in
  let half = head_dim / 2 in
  for i = 0 to half - 1 do
    let freq = 10_000.0 ** (-.(2.0 *. float_of_int i) /. float_of_int head_dim) in
    let angle = float_of_int pos *. freq in
    let c = cos angle and s = sin angle in
    let a = v.(2 * i) and b = v.((2 * i) + 1) in
    out.(2 * i) <- (a *. c) -. (b *. s);
    out.((2 * i) + 1) <- (a *. s) +. (b *. c)
  done;
  out

let apply_heads ~head_dim ~pos v =
  let n = Array.length v in
  if n mod head_dim <> 0 then invalid_arg "Rope.apply_heads: length";
  let out = Array.make n 0.0 in
  let heads = n / head_dim in
  for h = 0 to heads - 1 do
    let slice = Array.sub v (h * head_dim) head_dim in
    let rotated = apply ~head_dim ~pos slice in
    Array.blit rotated 0 out (h * head_dim) head_dim
  done;
  out
