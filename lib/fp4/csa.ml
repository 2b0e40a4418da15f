type stats = {
  full_adders : int;
  half_adders : int;
  depth : int;
  cpa_width : int;
}

(* The tree's structure is fixed by its shape alone: every operand brings
   [width] wires, whatever its value.  A 3:2 compressor keeps the
   column-weighted sum (a+b+c = s + 2*carry), so [reduce] adds the values
   exactly while [tree] counts the hardware over per-column wire counts. *)
let tree ~width ~operands =
  if width < 1 || width > 61 then invalid_arg "Csa.tree: width out of range";
  if operands < 0 then invalid_arg "Csa.tree: negative operand count";
  (* Columns grow past [width] as carries ripple left;
     width + ceil(log2 n) + 2 bounds the growth. *)
  let rec bits k acc = if k = 0 then acc else bits (k lsr 1) (acc + 1) in
  let wires = Array.init (width + bits operands 0 + 2) (fun b -> if b < width then operands else 0) in
  let fa = ref 0 and ha = ref 0 and depth = ref 0 in
  while Array.exists (fun w -> w > 2) wires do
    incr depth;
    let carries = Array.make (Array.length wires) 0 in
    for b = 0 to Array.length wires - 2 do
      let w = wires.(b) in
      if w > 2 then begin
        let f = w / 3 and h = if w mod 3 = 2 then 1 else 0 in
        fa := !fa + f;
        ha := !ha + h;
        carries.(b + 1) <- carries.(b + 1) + f + h;
        (* sum bits kept in this column *)
        wires.(b) <- f + h + (if w mod 3 = 1 then 1 else 0)
      end
    done;
    Array.iteri (fun b c -> wires.(b) <- wires.(b) + c) carries
  done;
  let top = ref 0 in
  Array.iteri (fun b w -> if w > 0 then top := b + 1) wires;
  let cpa_width = if Array.exists (fun w -> w = 2) wires then !top else 0 in
  { full_adders = !fa; half_adders = !ha; depth = !depth; cpa_width }

let reduce ~width xs =
  if width < 1 || width > 61 then invalid_arg "Csa.reduce: width out of range";
  let limit = 1 lsl width in
  Array.iter
    (fun x ->
      if x < 0 || x >= limit then invalid_arg "Csa.reduce: operand out of declared width")
    xs;
  (Array.fold_left ( + ) 0 xs, tree ~width ~operands:(Array.length xs))
