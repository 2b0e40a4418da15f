type plane = Bytes.t

let min_int_for bits = -(1 lsl (bits - 1))

let max_int_for bits = (1 lsl (bits - 1)) - 1

let check_range ?(caller = "Bitserial") ~bits v =
  if bits < 2 || bits > 32 then invalid_arg (caller ^ ": bits must be in 2..32");
  let lo = min_int_for bits and hi = max_int_for bits in
  Array.iteri
    (fun i x ->
      if x < lo || x > hi then
        invalid_arg
          (Printf.sprintf "%s: element %d (=%d) out of %d-bit range" caller i x
             bits))
    v

let planes ~bits v =
  check_range ~bits v;
  let n = Array.length v in
  Array.init bits (fun b ->
      let p = Bytes.create n in
      for i = 0 to n - 1 do
        (* Two's complement: [land] on the masked representation. *)
        let repr = v.(i) land ((1 lsl bits) - 1) in
        Bytes.unsafe_set p i (if (repr lsr b) land 1 = 1 then '\001' else '\000')
      done;
      p)

let plane_get p i = Char.code (Bytes.get p i)

let plane_weight ~bits b =
  if b < 0 || b >= bits then invalid_arg "Bitserial.plane_weight";
  if b = bits - 1 then -(1 lsl b) else 1 lsl b

let reconstruct ~bits ps =
  if Array.length ps <> bits then invalid_arg "Bitserial.reconstruct: arity";
  let n = Bytes.length ps.(0) in
  Array.init n (fun i ->
      let acc = ref 0 in
      for b = 0 to bits - 1 do
        if plane_get ps.(b) i = 1 then acc := !acc + plane_weight ~bits b
      done;
      !acc)

let popcount_plane p =
  let acc = ref 0 in
  for i = 0 to Bytes.length p - 1 do
    acc := !acc + Char.code (Bytes.unsafe_get p i)
  done;
  !acc

let dot_by_planes ~bits ~weights v =
  if Array.length weights <> Array.length v then
    invalid_arg "Bitserial.dot_by_planes: length mismatch";
  let ps = planes ~bits v in
  let total = ref 0 in
  for b = 0 to bits - 1 do
    let per_plane = ref 0 in
    for i = 0 to Array.length v - 1 do
      if plane_get ps.(b) i = 1 then per_plane := !per_plane + weights.(i)
    done;
    total := !total + (!per_plane * plane_weight ~bits b)
  done;
  !total

(* --- Packed view --------------------------------------------------------- *)

let word_bits = 62

let words_for n = (n + word_bits - 1) / word_bits

let set_element packed ~pos i =
  let k = pos + (i / word_bits) in
  packed.(k) <- packed.(k) lor (1 lsl (i mod word_bits))

let packed_planes ~bits v =
  check_range ~bits v;
  let n = Array.length v in
  let words = words_for n in
  let packed = Array.make (bits * words) 0 in
  for i = 0 to n - 1 do
    let repr = v.(i) land ((1 lsl bits) - 1) in
    for b = 0 to bits - 1 do
      if (repr lsr b) land 1 = 1 then set_element packed ~pos:(b * words) i
    done
  done;
  packed

(* SWAR: 2-bit, then 4-bit, then byte counts, then the bytes summed into the
   low byte.  The masks stop below bit 62, so every constant is a
   non-negative OCaml int. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  let x = x + (x lsr 8) in
  let x = x + (x lsr 16) in
  (x + (x lsr 32)) land 0x7F
[@@inline]

(* Eight masks per word: [p_k] at [j + k] and [n_k] at [j + 4 + k] select
   the positive and the negative weights with bit k of the magnitude set. *)
let signed_digit w masks j k =
  popcount (w land Array.unsafe_get masks (j + k))
  - popcount (w land Array.unsafe_get masks (j + 4 + k))
[@@inline]

let rec masked_dot_from a i masks j stop acc =
  if i = stop then acc
  else
    let w = Array.unsafe_get a i in
    masked_dot_from a (i + 1) masks (j + 8) stop
      (acc + signed_digit w masks j 0
      + (signed_digit w masks j 1 lsl 1)
      + (signed_digit w masks j 2 lsl 2)
      + (signed_digit w masks j 3 lsl 3))

let masked_dot a ~pos masks ~mask_pos ~len =
  if
    len < 0 || pos < 0 || mask_pos < 0
    || pos + len > Array.length a
    || mask_pos + (8 * len) > Array.length masks
  then invalid_arg "Bitserial.masked_dot: word range out of bounds";
  masked_dot_from a pos masks mask_pos (pos + len) 0
