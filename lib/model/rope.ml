(* One angle per dimension pair, shared by every head: the pair loop is
   outermost so [cos]/[sin] run [head_dim / 2] times per call, not per
   head. *)
let apply_heads ~head_dim ~pos v =
  let n = Array.length v in
  if n mod head_dim <> 0 then invalid_arg "Rope.apply_heads: length";
  if n > 0 && head_dim mod 2 <> 0 then invalid_arg "Rope.apply: odd head_dim";
  let out = Array.make n 0.0 in
  for i = 0 to (head_dim / 2) - 1 do
    let freq = 10_000.0 ** (-.(2.0 *. float_of_int i) /. float_of_int head_dim) in
    let angle = float_of_int pos *. freq in
    let c = cos angle and s = sin angle in
    let j = ref (2 * i) in
    while !j < n do
      let a = v.(!j) and b = v.(!j + 1) in
      out.(!j) <- (a *. c) -. (b *. s);
      out.(!j + 1) <- (a *. s) +. (b *. c);
      j := !j + head_dim
    done
  done;
  out

let apply ~head_dim ~pos v =
  if Array.length v <> head_dim then invalid_arg "Rope.apply: wrong length";
  apply_heads ~head_dim ~pos v
