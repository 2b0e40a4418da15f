let pass ~q ~qo ~heads ~head_dim:d ~ks ~vs ~stride ~kvo ~first ~stop ~acc ~ao ~stats ~so =
  let last = ((stop - 1) * stride) + kvo + d in
  if
    first < 0 || qo < 0 || kvo < 0 || stride < 0 || d land 1 = 1
    || qo + (heads * d) > Array.length q
    || (stop > first && (last > Array.length ks || last > Array.length vs))
  then invalid_arg "Attention.pass: odd head_dim or range out of bounds";
  let scale = 1.0 /. sqrt (float_of_int d) in
  Array.fill acc ao (heads * d) 0.0;
  for h = 0 to heads - 1 do
    stats.(so + (2 * h)) <- neg_infinity;
    stats.(so + (2 * h) + 1) <- 0.0
  done;
  let dot = ref 0.0 in
  for p = first to stop - 1 do
    let base = (p * stride) + kvo in
    for h = 0 to heads - 1 do
      let hq = qo + (h * d) and ha = ao + (h * d) and sm = so + (2 * h) in
      (* Unrolled by hand: four products a step, still summed in index
         order, and two weighted values a step below. *)
      dot := 0.0;
      for j = 0 to (d / 4) - 1 do
        let i = 4 * j in
        dot :=
          !dot
          +. (Array.unsafe_get q (hq + i) *. Array.unsafe_get ks (base + i))
          +. (Array.unsafe_get q (hq + i + 1) *. Array.unsafe_get ks (base + i + 1))
          +. (Array.unsafe_get q (hq + i + 2) *. Array.unsafe_get ks (base + i + 2))
          +. (Array.unsafe_get q (hq + i + 3) *. Array.unsafe_get ks (base + i + 3))
      done;
      for i = d land lnot 3 to d - 1 do
        dot := !dot +. (Array.unsafe_get q (hq + i) *. Array.unsafe_get ks (base + i))
      done;
      let s = !dot *. scale and m = stats.(sm) in
      (* One [exp] per step: below the running max the correction is
         exp 0 = 1, above it the new weight is. *)
      if s <= m then begin
        let w = exp (s -. m) in
        for j = 0 to (d / 2) - 1 do
          let i = ha + (2 * j) and v = base + (2 * j) in
          Array.unsafe_set acc i (Array.unsafe_get acc i +. (w *. Array.unsafe_get vs v));
          Array.unsafe_set acc (i + 1)
            (Array.unsafe_get acc (i + 1) +. (w *. Array.unsafe_get vs (v + 1)))
        done;
        stats.(sm + 1) <- stats.(sm + 1) +. w
      end
      else begin
        let corr = exp (m -. s) in
        for i = 0 to d - 1 do
          Array.unsafe_set acc (ha + i)
            ((Array.unsafe_get acc (ha + i) *. corr) +. Array.unsafe_get vs (base + i))
        done;
        stats.(sm + 1) <- (stats.(sm + 1) *. corr) +. 1.0;
        stats.(sm) <- s
      end
    done
  done
