(* Fixed-bucket base-2 log-histogram.  Layout and error bound are
   documented in the mli; the implementation constraints that shape the
   code are:

   - [observe] is an ALLOC-HOT Leaf hot path (see [Lint_config]), so the
     bucket index is read straight off the IEEE-754 bits: for a normal
     |v| = 2^e * (1 + m / 2^52), octave e + 64 is the biased exponent
     minus 959 and the sub-bucket is the top five bits of [m], which is
     exactly [trunc ((|v| / 2^e - 1) * 32)].  [Int64.bits_of_float] is
     an [[@unboxed]] external and the shifts and masks are int64
     primitives, so the word never leaves registers and the index costs
     no search and no allocation.
   - The float scalars live in their own all-float record so updating
     them is a flat store, not a fresh float box per event.
   - Each sign's bucket counts are unsigned 32-bit counters packed into
     one [Bytes.t] (16 KB, half an [int array]), read and written with
     the unchecked [%caml_bytes_get32u]/[%caml_bytes_set32u] primitives.
     As with [Rng]'s 64-bit state word, the int32 such a primitive
     returns stays unboxed while it flows only into [Int32.to_int] or the
     store, so a bump allocates nothing.  A count that would pass
     2^32 - 1 raises instead of wrapping.
   - A float argument to a non-inlined call is boxed at the call site, so
     callers that compute their samples can hand them over in a
     [Float.Array.t] block ([observe_block]) and keep them unboxed end to
     end, one call per block; both entry points inline the same body.
   - Determinism: the index is integer arithmetic on the bit pattern,
     identical on every platform. *)

(* 32 linear sub-buckets per octave: relative half-width 1/64. *)
let relative_error = 1.0 /. 64.0

let octaves = 128 (* exponents -64 .. 63 *)
let buckets = octaves * 32

let tiny = Float.ldexp 1.0 (-64)
let huge = Float.ldexp 1.0 64

(* bounds.(o) = 2^(o - 64); octave o covers [bounds.(o), bounds.(o+1)). *)
let bounds = Array.init (octaves + 1) (fun i -> Float.ldexp 1.0 (i - 64))

type scalars = { mutable sum : float; mutable lo : float; mutable hi : float }

type t = {
  s : scalars;
  mutable count : int;
  mutable zero : int; (* |v| < 2^-64, including 0. and -0. *)
  mutable pos_overflow : int; (* v >= 2^64, including +inf *)
  mutable neg_overflow : int; (* v <= -(2^64), including -inf *)
  pos : Bytes.t; (* [buckets] unsigned 32-bit counts *)
  mutable neg : Bytes.t; (* [Bytes.empty] until the first negative sample *)
}

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let max_count = 0xFFFF_FFFF

(* Count of bucket [i]; [i] is in [0, buckets) wherever this is called. *)
let[@inline] get b i = Int32.to_int (get32u b (i lsl 2)) land max_count

let[@inline] set b i c = set32u b (i lsl 2) (Int32.of_int c)

let counters () = Bytes.make (buckets * 4) '\000'

let create () =
  {
    s = { sum = 0.0; lo = infinity; hi = neg_infinity };
    count = 0;
    zero = 0;
    pos_overflow = 0;
    neg_overflow = 0;
    pos = counters ();
    neg = Bytes.empty;
  }

(* Bucket of |v| for 2^-64 <= |v| < 2^64: the biased exponent and the
   top five mantissa bits are bits 47..62 of the IEEE word, and octave 0
   starts at biased exponent 1023 - 64 = 959. *)
let[@inline] bucket_index v =
  (Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float v) 47) land 0xFFFF)
  - (959 lsl 5)

(* Cold: runs at most once per sketch, on the first negative sample. *)
let grow_neg t = t.neg <- counters ()

(* Cold: a full 32-bit bucket. *)
let full caller = invalid_arg (caller ^ ": bucket count would exceed 2^32 - 1")

let[@inline] bump b i =
  let c = get b i in
  if c = max_count then full "Sketch.observe";
  set b i (c + 1)

(* The bucket is bumped before the scalars move, so a full bucket leaves
   the sketch as it was. *)
let[@inline] observe_body t v =
  if Float.is_nan v then invalid_arg "Sketch.observe: nan sample";
  if v >= 0.0 then
    if v < tiny then t.zero <- t.zero + 1
    else if v >= huge then t.pos_overflow <- t.pos_overflow + 1
    else bump t.pos (bucket_index v)
  else if v > -.tiny then t.zero <- t.zero + 1
  else if v <= -.huge then t.neg_overflow <- t.neg_overflow + 1
  else begin
    if Bytes.length t.neg = 0 then grow_neg t;
    bump t.neg (bucket_index v)
  end;
  t.count <- t.count + 1;
  t.s.sum <- t.s.sum +. v;
  if v < t.s.lo then t.s.lo <- v;
  if v > t.s.hi then t.s.hi <- v

let observe t v = observe_body t v

let observe_block t cells k =
  if k < 0 || k > Float.Array.length cells then
    invalid_arg "Sketch.observe_block: k outside [0, Float.Array.length cells]";
  for i = 0 to k - 1 do
    observe_body t (Float.Array.unsafe_get cells i)
  done

let count t = t.count

let mean t = if t.count = 0 then nan else t.s.sum /. float_of_int t.count

let min_v t = t.s.lo

let max_v t = t.s.hi

(* Midpoint of bucket [i]'s value range (positive side). *)
let rep i =
  let o = i lsr 5 and s = i land 31 in
  bounds.(o) *. (1.0 +. ((float_of_int s +. 0.5) /. 32.0))

let clamp t x = if x < t.s.lo then t.s.lo else if x > t.s.hi then t.s.hi else x

(* Representative of the k-th (0-based) order statistic: walk buckets in
   ascending value order.  O(buckets); quantile queries are report-time
   only, never on the per-event path. *)
let nth_interior t k =
  let k = ref k in
  let out = ref nan in
  let found = ref false in
  let take n r =
    if not !found then
      if !k < n then begin
        out := clamp t r;
        found := true
      end
      else k := !k - n
  in
  take t.neg_overflow t.s.lo;
  if Bytes.length t.neg > 0 then
    for i = buckets - 1 downto 0 do
      take (get t.neg i) (-.rep i)
    done;
  take t.zero 0.0;
  for i = 0 to buckets - 1 do
    take (get t.pos i) (rep i)
  done;
  take t.pos_overflow t.s.hi;
  !out

(* The extreme order statistics are the exactly-tracked min and max, so
   p = 0 and p = 1 (and every singleton) come out exact. *)
let nth t k =
  if k <= 0 then t.s.lo
  else if k >= t.count - 1 then t.s.hi
  else nth_interior t k

let quantile t p =
  (* Same validation, rank arithmetic and interpolation as
     [Stats.percentile], with bucket representatives in place of the
     sorted order statistics. *)
  if Float.is_nan p || p < 0.0 || p > 1.0 then
    invalid_arg "Sketch.quantile: p out of range";
  if t.count = 0 then nan
  else begin
    let rank = p *. float_of_int (t.count - 1) in
    let lo = int_of_float (floor rank) in
    let hi = Stdlib.min (lo + 1) (t.count - 1) in
    let frac = rank -. float_of_int lo in
    let xlo = nth t lo in
    if hi = lo then xlo
    else (xlo *. (1.0 -. frac)) +. (nth t hi *. frac)
  end

(* Every bucket sum is checked before any is stored, so a merge that
   would overflow leaves [into] as it was. *)
let merge_counters ~into src =
  for i = 0 to buckets - 1 do
    if get into i + get src i > max_count then full "Sketch.merge_into"
  done;
  for i = 0 to buckets - 1 do
    set into i (get into i + get src i)
  done

let merge_into ~into src =
  merge_counters ~into:into.pos src.pos;
  if Bytes.length src.neg > 0 then begin
    if Bytes.length into.neg = 0 then grow_neg into;
    merge_counters ~into:into.neg src.neg
  end;
  into.count <- into.count + src.count;
  into.s.sum <- into.s.sum +. src.s.sum;
  if src.s.lo < into.s.lo then into.s.lo <- src.s.lo;
  if src.s.hi > into.s.hi then into.s.hi <- src.s.hi;
  into.zero <- into.zero + src.zero;
  into.pos_overflow <- into.pos_overflow + src.pos_overflow;
  into.neg_overflow <- into.neg_overflow + src.neg_overflow

(* Exact heap words: t (7 fields) and scalars (3 float fields), each
   plus a header, and each counter block's header and payload (a
   [Bytes.t] of [n] bytes spans [n / 8 + 1] words, [Bytes.empty] too). *)
let live_words t =
  let block b = (Bytes.length b / 8) + 2 in
  8 + 4 + block t.pos + block t.neg

let nonempty_buckets t =
  let live = ref 0 in
  let note c = if c > 0 then Stdlib.incr live in
  note t.zero;
  note t.pos_overflow;
  note t.neg_overflow;
  let side b =
    if Bytes.length b > 0 then
      for i = 0 to buckets - 1 do
        note (get b i)
      done
  in
  side t.pos;
  side t.neg;
  !live

let to_json t =
  Json.obj
    [
      ("count", Json.int t.count);
      ("mean", Json.number (mean t));
      ("min", Json.number t.s.lo);
      ("max", Json.number t.s.hi);
      ("p50", Json.number (quantile t 0.5));
      ("p95", Json.number (quantile t 0.95));
      ("p99", Json.number (quantile t 0.99));
      ("error_bound", Json.number relative_error);
      ("buckets", Json.int (nonempty_buckets t));
    ]
