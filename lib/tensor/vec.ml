type t = float array

let zeros n = Array.make n 0.0

let gaussian rng n = Array.init n (fun _ -> Hnlpu_util.Rng.gaussian rng)

let check_same_length name a b =
  if Array.length a <> Array.length b then
    invalid_arg (name ^ ": length mismatch")

(* The element-wise operations are explicit loops: [Array.map] over a
   float array boxes every element it hands to the closure and every
   result it gets back. *)
let add a b =
  check_same_length "Vec.add" a b;
  let out = Array.create_float (Array.length a) in
  for i = 0 to Array.length a - 1 do
    out.(i) <- a.(i) +. b.(i)
  done;
  out

let add_inplace dst src =
  check_same_length "Vec.add_inplace" dst src;
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- dst.(i) +. src.(i)
  done

let sub a b =
  check_same_length "Vec.sub" a b;
  let out = Array.create_float (Array.length a) in
  for i = 0 to Array.length a - 1 do
    out.(i) <- a.(i) -. b.(i)
  done;
  out

let scale s a =
  let out = Array.create_float (Array.length a) in
  for i = 0 to Array.length a - 1 do
    out.(i) <- s *. a.(i)
  done;
  out

let mul a b =
  check_same_length "Vec.mul" a b;
  let out = Array.create_float (Array.length a) in
  for i = 0 to Array.length a - 1 do
    out.(i) <- a.(i) *. b.(i)
  done;
  out

let dot a b =
  check_same_length "Vec.dot" a b;
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let norm2 a = sqrt (dot a a)

let max_abs_diff a b =
  check_same_length "Vec.max_abs_diff" a b;
  let m = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    m := Float.max !m (Float.abs (a.(i) -. b.(i)))
  done;
  !m

let softmax_masked a ~valid =
  if valid <= 0 || valid > Array.length a then invalid_arg "Vec.softmax_masked";
  let m = ref neg_infinity in
  for i = 0 to valid - 1 do
    if a.(i) > !m then m := a.(i)
  done;
  let out = Array.make (Array.length a) 0.0 in
  let z = ref 0.0 in
  for i = 0 to valid - 1 do
    let e = exp (a.(i) -. !m) in
    out.(i) <- e;
    z := !z +. e
  done;
  for i = 0 to valid - 1 do
    out.(i) <- out.(i) /. !z
  done;
  out

let softmax a = softmax_masked a ~valid:(Array.length a)

let rmsnorm ~gain a =
  check_same_length "Vec.rmsnorm" gain a;
  let n = Array.length a in
  let ms = ref 0.0 in
  for i = 0 to n - 1 do
    ms := !ms +. (a.(i) *. a.(i))
  done;
  let inv = 1.0 /. sqrt ((!ms /. float_of_int n) +. 1e-6) in
  let out = Array.create_float n in
  for i = 0 to n - 1 do
    out.(i) <- a.(i) *. inv *. gain.(i)
  done;
  out

let silu a =
  let out = Array.create_float (Array.length a) in
  for i = 0 to Array.length a - 1 do
    let x = a.(i) in
    out.(i) <- x /. (1.0 +. exp (-.x))
  done;
  out

let swiglu ~gate ~up = mul (silu gate) up

let argmax a =
  if Array.length a = 0 then invalid_arg "Vec.argmax: empty";
  let best = ref 0 in
  for i = 1 to Array.length a - 1 do
    if a.(i) > a.(!best) then best := i
  done;
  !best

(* Descending by [Float.compare] (NaN below every number, as polymorphic
   [compare] puts it); the stable sort keeps the lower index first among
   equals. *)
let top_k k (a : t) =
  if k <= 0 || k > Array.length a then invalid_arg "Vec.top_k";
  let idx = Array.init (Array.length a) Fun.id in
  Array.stable_sort (fun i j -> Float.compare a.(j) a.(i)) idx;
  List.init k (fun r -> (idx.(r), a.(idx.(r))))
