type stats = {
  full_adders : int;
  half_adders : int;
  depth : int;
  cpa_width : int;
}

let empty_stats = { full_adders = 0; half_adders = 0; depth = 0; cpa_width = 0 }

(* A 3:2 compressor preserves the column-weighted sum (a+b+c = s + 2*carry),
   so the value flowing through the tree is fully determined by the per-column
   set-bit counts, while the *structure* is determined by per-column wire
   counts.  We track both: [set] for the arithmetic result, [wires] for the
   hardware census. *)
let reduce ~width xs =
  if width < 1 || width > 61 then invalid_arg "Csa.reduce: width out of range";
  let n = Array.length xs in
  if n = 0 then (0, empty_stats)
  else begin
    let limit = 1 lsl width in
    Array.iter
      (fun x ->
        if x < 0 || x >= limit then
          invalid_arg "Csa.reduce: operand out of declared width")
      xs;
    (* Exact sum via column counts. *)
    let sum = Array.fold_left ( + ) 0 xs in
    (* Structural simulation over wire counts.  Columns grow past [width] as
       carries ripple left; width + ceil(log2 n) + 2 bounds the growth. *)
    let extra =
      let rec bits k acc = if k = 0 then acc else bits (k lsr 1) (acc + 1) in
      bits n 0
    in
    let wires = Array.make (width + extra + 2) 0 in
    for b = 0 to width - 1 do
      wires.(b) <- n
    done;
    let fa = ref 0 and ha = ref 0 and depth = ref 0 in
    let needs_round () = Array.exists (fun w -> w > 2) wires in
    while needs_round () do
      incr depth;
      let carries = Array.make (Array.length wires) 0 in
      for b = 0 to Array.length wires - 2 do
        let w = wires.(b) in
        if w > 2 then begin
          let f = w / 3 in
          let rem = w mod 3 in
          let h = if rem = 2 then 1 else 0 in
          fa := !fa + f;
          ha := !ha + h;
          carries.(b + 1) <- carries.(b + 1) + f + h;
          (* sum bits kept in this column *)
          wires.(b) <- f + h + (if rem = 1 then 1 else 0)
        end
      done;
      for b = 0 to Array.length wires - 1 do
        wires.(b) <- wires.(b) + carries.(b)
      done
    done;
    let cpa_width =
      let top = ref 0 in
      Array.iteri (fun b w -> if w > 0 then top := b + 1) wires;
      let two_rows = Array.exists (fun w -> w = 2) wires in
      if two_rows then !top else 0
    in
    (sum, { full_adders = !fa; half_adders = !ha; depth = !depth; cpa_width })
  end

let popcount p =
  let n = Bytes.length p in
  let xs = Array.init n (fun i -> Char.code (Bytes.get p i)) in
  reduce ~width:1 xs

let adder_depth n =
  (* Wallace: rounds to compress n operand rows to 2 via 3:2 stages. *)
  let rec go n d = if n <= 2 then d else go (((n / 3) * 2) + (n mod 3)) (d + 1) in
  go n 0
