type t = { rows : int; cols : int; data : float array }

let create ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Mat.create: non-positive size";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let of_arrays arrays =
  let rows = Array.length arrays in
  if rows = 0 then invalid_arg "Mat.of_arrays: empty";
  let cols = Array.length arrays.(0) in
  if cols = 0 then invalid_arg "Mat.of_arrays: empty row";
  let m = create ~rows ~cols in
  Array.iteri
    (fun r row ->
      if Array.length row <> cols then invalid_arg "Mat.of_arrays: ragged";
      Array.blit row 0 m.data (r * cols) cols)
    arrays;
  m

let init ~rows ~cols f =
  let m = create ~rows ~cols in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      m.data.((r * cols) + c) <- f r c
    done
  done;
  m

let gaussian ?std rng ~rows ~cols =
  let std =
    match std with Some s -> s | None -> 1.0 /. sqrt (float_of_int rows)
  in
  init ~rows ~cols (fun _ _ -> std *. Hnlpu_util.Rng.gaussian rng)

let rows m = m.rows
let cols m = m.cols

let get m r c = m.data.((r * m.cols) + c)

let row m r = Array.sub m.data (r * m.cols) m.cols

let col m c = Array.init m.rows (fun r -> get m r c)

(* Eight output columns per pass over the rows, each in its own local
   accumulator that stays in a register.  Every column sums its rows in
   increasing order and skips zero activations, so the result does not
   depend on the blocking: the block only widens independent work.  An
   accumulator starts at +0 and so is never -0: added once to a zeroed
   [out], it lands bit for bit. *)
let gemv_into m x ~xo out ~oo =
  let rows = m.rows and cols = m.cols and data = m.data in
  if xo < 0 || xo + rows > Array.length x || oo < 0 || oo + cols > Array.length out then
    invalid_arg "Mat.gemv_into: dimension mismatch";
  let a0 = ref 0.0 and a1 = ref 0.0 and a2 = ref 0.0 and a3 = ref 0.0 in
  let a4 = ref 0.0 and a5 = ref 0.0 and a6 = ref 0.0 and a7 = ref 0.0 in
  (* [next] steps through the block's weights one row at a time. *)
  let next = ref 0 in
  let blocked = cols land lnot 7 in
  for blk = 0 to (blocked / 8) - 1 do
    let c0 = 8 * blk in
    a0 := 0.0;
    a1 := 0.0;
    a2 := 0.0;
    a3 := 0.0;
    a4 := 0.0;
    a5 := 0.0;
    a6 := 0.0;
    a7 := 0.0;
    next := c0;
    for i = xo to xo + rows - 1 do
      let xi = Array.unsafe_get x i in
      let b = !next in
      next := b + cols;
      if xi <> 0.0 then begin
        a0 := !a0 +. (xi *. Array.unsafe_get data b);
        a1 := !a1 +. (xi *. Array.unsafe_get data (b + 1));
        a2 := !a2 +. (xi *. Array.unsafe_get data (b + 2));
        a3 := !a3 +. (xi *. Array.unsafe_get data (b + 3));
        a4 := !a4 +. (xi *. Array.unsafe_get data (b + 4));
        a5 := !a5 +. (xi *. Array.unsafe_get data (b + 5));
        a6 := !a6 +. (xi *. Array.unsafe_get data (b + 6));
        a7 := !a7 +. (xi *. Array.unsafe_get data (b + 7))
      end
    done;
    let o = oo + c0 in
    out.(o) <- out.(o) +. !a0;
    out.(o + 1) <- out.(o + 1) +. !a1;
    out.(o + 2) <- out.(o + 2) +. !a2;
    out.(o + 3) <- out.(o + 3) +. !a3;
    out.(o + 4) <- out.(o + 4) +. !a4;
    out.(o + 5) <- out.(o + 5) +. !a5;
    out.(o + 6) <- out.(o + 6) +. !a6;
    out.(o + 7) <- out.(o + 7) +. !a7
  done;
  for c = blocked to cols - 1 do
    a0 := 0.0;
    for r = 0 to rows - 1 do
      let xi = Array.unsafe_get x (xo + r) in
      if xi <> 0.0 then a0 := !a0 +. (xi *. Array.unsafe_get data ((r * cols) + c))
    done;
    out.(oo + c) <- out.(oo + c) +. !a0
  done

let gemv m x =
  if Array.length x <> m.rows then invalid_arg "Mat.gemv: dimension mismatch";
  let out = Array.make m.cols 0.0 in
  gemv_into m x ~xo:0 out ~oo:0;
  out

let gemv_t m x =
  if Array.length x <> m.cols then invalid_arg "Mat.gemv_t: dimension mismatch";
  Array.init m.rows (fun r ->
      let base = r * m.cols in
      let acc = ref 0.0 in
      for c = 0 to m.cols - 1 do
        acc := !acc +. (m.data.(base + c) *. x.(c))
      done;
      !acc)

let transpose m = init ~rows:m.cols ~cols:m.rows (fun r c -> get m c r)

let sub_cols m ~lo ~len =
  if lo < 0 || len <= 0 || lo + len > m.cols then invalid_arg "Mat.sub_cols";
  init ~rows:m.rows ~cols:len (fun r c -> get m r (lo + c))

let sub_rows m ~lo ~len =
  if lo < 0 || len <= 0 || lo + len > m.rows then invalid_arg "Mat.sub_rows";
  init ~rows:len ~cols:m.cols (fun r c -> get m (lo + r) c)

let map f m = { m with data = Array.map f m.data }

let to_arrays m = Array.init m.rows (fun r -> row m r)

let max_abs_diff a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Mat.max_abs_diff: shape mismatch";
  let m = ref 0.0 in
  Array.iteri (fun i x -> m := Float.max !m (Float.abs (x -. b.data.(i)))) a.data;
  !m
