(* SplitMix64 (Steele, Lea & Flood 2014): the textbook algorithm on one
   native 64-bit state word.

   The state lives in an 8-byte [Bytes.t] read and written with the
   [%caml_bytes_get64u]/[%caml_bytes_set64u] primitives.  ocamlopt keeps
   the int64 such a primitive returns unboxed for as long as it flows
   only into other int64 primitives ([Int64.add], [Int64.mul], shifts,
   [Int64.to_int]) or into the [%caml_bytes_set64u] store, so a draw is
   one add and two real 64-bit multiplies and allocates nothing.  The
   obvious [{ mutable state : int64 }] record boxes on every state store,
   because a record field of type int64 holds a pointer.

   Hot paths in other modules draw through the immediate-int [bits53],
   [int] and [bool]: under the dev profile's [-opaque] a cross-module
   call is never inlined, and an int64 or float crossing a non-inlined
   call is boxed, while an immediate int never is.  [test_par] pins every
   public operation against a boxed-int64 reference implementation. *)

type t = Bytes.t

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Advances the state by gamma and returns the mixed output. *)
let[@inline] next t =
  let s = Int64.add (get64u t 0) gamma in
  set64u t 0 s;
  mix s

(* Stream constructors allocate their state word by nature; they run
   once per stream at setup, never per draw (accepted in lint.baseline). *)

let[@inline] of_state s =
  let t = Bytes.create 8 in
  set64u t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy t = of_state (get64u t 0)

let next_int64 t = next t

let split t = of_state (mix (next t))

let derive seed ~stream =
  if stream < 0 then invalid_arg "Rng.derive: negative stream";
  (* Double-mix the (seed, stream) pair so adjacent streams land far
     apart in state space; independent of any shared generator, so
     parallel tasks can derive their stream from their index alone. *)
  let s = Int64.add (Int64.of_int seed) (Int64.mul gamma (Int64.of_int (stream + 1))) in
  of_state (mix (mix s))

(* For a power-of-two bound the draw is non-negative, so masking with
   [bound - 1] equals [mod] exactly and skips the division. *)
let[@inline] int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let r = Int64.to_int (Int64.shift_right_logical (next t) 1) land max_int in
  if bound land (bound - 1) = 0 then r land (bound - 1) else r mod bound

(* 53 uniform bits as an immediate int: the allocation-free primitive
   the float draws build on. *)
let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

(* The next 63 output bits per slot.  [next lsr 1] fits an immediate int
   whole, so [raw lsr 10] is [bits53]'s draw and [raw land max_int] the
   [r] that [int] reduces. *)
let fill_raw t buf =
  for i = 0 to Array.length buf - 1 do
    Array.unsafe_set buf i (Int64.to_int (Int64.shift_right_logical (next t) 1))
  done

(* 53 uniform mantissa bits.  Scaling by 2^-53 is exact for every
   53-bit integer, so the multiply equals the division by 2^53. *)
let[@inline] float t bound = float_of_int (bits53 t) *. 0x1p-53 *. bound

(* Rejection draw of a nonzero unit float, at the module level: the
   let-bound [draw] closures gaussian/exponential used to build cost an
   allocation on every variate. *)
let rec nonzero_unit t =
  let u = float t 1.0 in
  if u = 0.0 then nonzero_unit t else u

let gaussian t =
  let u1 = nonzero_unit t and u2 = float t 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

(* NaN fails [rate > 0.0]; an infinite rate would return 0 or NaN. *)
let exponential t rate =
  if not (rate > 0.0 && Float.is_finite rate) then
    invalid_arg "Rng.exponential: rate must be positive and finite";
  -.log (nonzero_unit t) /. rate
