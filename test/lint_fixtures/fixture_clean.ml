(* Deliberately clean module: pure, allocation-free-when-hot patterns
   the lint engine must stay silent on — the zero-findings control for
   test_lint and the self-test.  [draw_bits] and [exponent] are
   registered hot: int64 values flowing only between primitives and
   same-module [@inline] functions are never boxed. *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  Int64.logxor z (Int64.shift_right_logical z 31)

let draw_bits state =
  let s = Int64.add (get64u state 0) 0x9E3779B97F4A7C15L in
  set64u state 0 s;
  let z = mix s in
  if z = 0L then 0 else Int64.to_int (Int64.shift_right_logical z 11)

let exponent v =
  Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float v) 52) land 0x7FF

let clamp lo hi x = if x < lo then lo else if x > hi then hi else x

let dot3 a0 a1 a2 b0 b1 b2 = (a0 *. b0) +. (a1 *. b1) +. (a2 *. b2)

let sum_to n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := !acc + i
  done;
  !acc

let handled_specifically f default =
  (* Matching a specific exception is deliberate handling, not a
     swallow. *)
  try f () with Not_found -> default

let rethrow_with_context f =
  try f ()
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    Printexc.raise_with_backtrace e bt

(* The live half of the DEAD-EXPORT fixture, reached through both kinds
   of module alias. *)
module Dead = Fixture_dead_export

let shifted x =
  let module D = Fixture_dead_export in
  D.scaled ~offset:(Dead.used x) x
