(* ALLOC-HOT fixture: a function registered hot in [Lint.fixture_config]
   that allocates on every iteration of its loop — tuples, closures, list
   cons/append, Printf, a boxed int64 and a partial application.  Every
   one of these was a real pattern PR 6 had to hand-remove from the
   sweep hot paths. *)

let add2 a b c = a + b + c

(* Not [@inline]: an int64 argument reaches it boxed. *)
let low_byte (x : int64) = Int64.to_int x land 0xFF

let hot_loop n =
  let acc = ref 0 in
  for i = 0 to n - 1 do
    (* tuple allocation per iteration *)
    let pair = (i, i * 2) in
    (* closure allocation per iteration *)
    let f = fun x -> x + fst pair in
    (* list cons + append per iteration *)
    let xs = [ i; i + 1 ] @ [ i + 2 ] in
    (* Printf formatting per iteration *)
    let s = Printf.sprintf "%d" (List.length xs) in
    (* int64 arithmetic stays unboxed, but passing the result to a
       non-inlined function boxes it per iteration *)
    let big = Int64.add (Int64.of_int i) 1L in
    (* partial application allocates a closure *)
    let g = add2 i in
    acc := !acc + f i + String.length s + low_byte big + g 1 2
  done;
  !acc
