(* Streaming request-trace cursor.  See the .mli for the model catalog.

   Allocation discipline: [next] runs once per simulated request per
   shard, so it is registered as an ALLOC-HOT Leaf.  All mutable float
   state lives in the all-float sub-record [fl] (flat representation:
   float stores don't box); the current request's token counts and user
   id are immediate ints on the cursor itself.  Every random draw goes
   through the immediate-int SplitMix64 [Rng]: arrivals and lengths
   through the stream's own generator, the MMPP modulating chain through
   a second one that depends on the seed alone. *)

open Hnlpu_util

type length_dist =
  | Geometric of { mean : int }
  | Pareto of { alpha : float; xmin : float; cap : int }

type process =
  | Poisson of { rate_per_s : float }
  | Diurnal of { mean_rate_per_s : float; amplitude : float; period_s : float }
  | Mmpp of { rates_per_s : float array; mean_dwell_s : float }

type spec = {
  process : process;
  prefill : length_dist;
  decode : length_dist;
  users : int;
}

let chat ~rate_per_s =
  {
    process = Poisson { rate_per_s };
    prefill = Geometric { mean = 128 };
    decode = Geometric { mean = 128 };
    users = 10_000;
  }

let mean_rate_per_s spec =
  match spec.process with
  | Poisson { rate_per_s } -> rate_per_s
  | Diurnal { mean_rate_per_s; _ } -> mean_rate_per_s
  (* Dwell times are iid across states and switching is uniform, so the
     stationary law is uniform and the long-run rate is the plain mean. *)
  | Mmpp { rates_per_s; _ } ->
      Array.fold_left ( +. ) 0.0 rates_per_s /. float (Array.length rates_per_s)

(* NaN fails [r > 0.0]; an infinite rate would stack every arrival at
   one instant. *)
let check_rates who process =
  let check r =
    if not (r > 0.0 && Float.is_finite r) then
      invalid_arg (who ^ ": rate not positive and finite")
  in
  match process with
  | Poisson { rate_per_s } -> check rate_per_s
  | Diurnal { mean_rate_per_s; _ } -> check mean_rate_per_s
  | Mmpp { rates_per_s; _ } -> Array.iter check rates_per_s

let with_mean_rate spec rate =
  let process =
    match spec.process with
    | Poisson _ -> Poisson { rate_per_s = rate }
    | Diurnal d -> Diurnal { d with mean_rate_per_s = rate }
    | Mmpp { rates_per_s; mean_dwell_s } ->
        let current = mean_rate_per_s spec in
        let k = rate /. current in
        Mmpp { rates_per_s = Array.map (fun r -> r *. k) rates_per_s; mean_dwell_s }
  in
  check_rates "Arrivals.with_mean_rate" process;
  { spec with process }

let mean_tokens = function
  | Geometric { mean } -> float mean
  | Pareto { alpha; xmin; _ } ->
      if alpha <= 1.0 then infinity else alpha *. xmin /. (alpha -. 1.0)

(* All-float so stores into [now_s]/[dwell_until_s] are flat writes, not
   box allocations, and reads of the per-spec constants are flat loads:
   a length draw reads its parameter here rather than taking it as a
   float argument, which a non-inlined call would box. *)
type fl = {
  mutable now_s : float;  (* process clock: candidate-arrival frontier *)
  mutable dwell_until_s : float;  (* MMPP: when the current state expires *)
  prefill_param : float;  (* see [length_param] *)
  decode_param : float;
}

(* The published arrival time lives in its own (private in the .mli)
   all-float cell so hot readers bind it once and read the field
   directly — a non-inlined [arrival_s t] accessor call would box the
   float return on every request. *)
type clock = { mutable arrival_s : float }

type t = {
  rng : Rng.t;  (* arrival gaps, thinning, lengths and users *)
  chain : Rng.t;  (* MMPP state and dwell draws, shared by every stream *)
  spec : spec;
  fl : fl;
  clock : clock;
  mutable mmpp_state : int;
  mutable prefill_tokens : int;
  mutable decode_tokens : int;
  mutable user : int;
  mutable generated : int;
}

let validate_dist name = function
  | Geometric { mean } ->
      if mean < 1 then invalid_arg ("Arrivals.create: " ^ name ^ " mean < 1")
  | Pareto { alpha; xmin; cap } ->
      if not (alpha > 0.0) then invalid_arg ("Arrivals.create: " ^ name ^ " alpha <= 0");
      if not (xmin >= 1.0) then invalid_arg ("Arrivals.create: " ^ name ^ " xmin < 1");
      if cap < 1 then invalid_arg ("Arrivals.create: " ^ name ^ " cap < 1")

let validate spec =
  check_rates "Arrivals.create" spec.process;
  (match spec.process with
  | Poisson _ -> ()
  | Diurnal { amplitude; period_s; _ } ->
      if not (amplitude >= 0.0 && amplitude < 1.0) then
        invalid_arg "Arrivals.create: amplitude outside [0, 1)";
      if not (period_s > 0.0) then invalid_arg "Arrivals.create: period <= 0"
  | Mmpp { rates_per_s; mean_dwell_s } ->
      if Array.length rates_per_s = 0 then invalid_arg "Arrivals.create: empty MMPP";
      if not (mean_dwell_s > 0.0) then invalid_arg "Arrivals.create: dwell <= 0");
  validate_dist "prefill" spec.prefill;
  validate_dist "decode" spec.decode;
  if spec.users < 1 then invalid_arg "Arrivals.create: users < 1"

(* Uniform in [0, 1) through the immediate-int primitive: bit-identical
   to [Rng.float rng 1.0], but the int return of [bits53] never
   allocates where a non-inlined [Rng.float] call boxes its result.
   This module makes three draws per request on the Leaf hot path. *)
let[@inline] unit_draw rng = float_of_int (Rng.bits53 rng) *. 0x1p-53

(* Exp(rate) by inverse CDF on [1-u] in (0, 1].  Local rather than
   [Rng.exponential]: that one draws through a non-inlined rejection
   helper whose boxed float return costs ~3 words on every variate. *)
let[@inline] exp_draw rng rate = -.log (1.0 -. unit_draw rng) /. rate

(* A length draw's parameter, computed once per cursor: a Geometric
   length's Exp rate [1 / mean], a Pareto length's exponent [-1 / alpha].
   The same divisions the draws used to make per request, so every
   length is unchanged. *)
let length_param = function
  | Geometric { mean } -> 1.0 /. float mean
  | Pareto { alpha; _ } -> -1.0 /. alpha

(* The chain generator is the seed's own SplitMix64 sequence
   ([Rng.create seed]).  [Rng.derive] double-mixes every (seed, stream)
   pair before its first draw, so no arrival stream starts on it. *)
let create ?(stream = 0) ~seed spec =
  validate spec;
  let rng = Rng.derive seed ~stream in
  let chain = Rng.create seed in
  let t =
    {
      rng;
      chain;
      spec;
      fl =
        {
          now_s = 0.0;
          dwell_until_s = 0.0;
          prefill_param = length_param spec.prefill;
          decode_param = length_param spec.decode;
        };
      clock = { arrival_s = 0.0 };
      mmpp_state = 0;
      prefill_tokens = 1;
      decode_tokens = 1;
      user = 0;
      generated = 0;
    }
  in
  (match spec.process with
  | Mmpp { rates_per_s; mean_dwell_s } ->
      t.mmpp_state <- Rng.int chain (Array.length rates_per_s);
      t.fl.dwell_until_s <- exp_draw chain (1.0 /. mean_dwell_s)
  | Poisson _ | Diurnal _ -> ());
  t

let two_pi = 8.0 *. atan 1.0

(* [decode] picks the side whose [length_param] applies. *)
let draw_tokens t dist ~decode =
  let param = if decode then t.fl.decode_param else t.fl.prefill_param in
  match dist with
  | Geometric _ -> 1 + int_of_float (exp_draw t.rng param)
  | Pareto { xmin; cap; _ } ->
      (* Inverse-CDF: x = xmin * u^(-1/alpha) with u in (0, 1]. *)
      let u = 1.0 -. unit_draw t.rng in
      let x = xmin *. (u ** param) in
      let n = if x >= float cap then cap else int_of_float x in
      if n < 1 then 1 else n

(* The emitters are module-level tail recursions, not [while]+[ref] loops:
   a ref cell is a minor-heap allocation and these run on the Leaf hot
   path.  Each re-matches [t.spec.process] per step instead of taking the
   rate parameters as arguments, so no float crosses a non-inlined call
   boundary (which would box it). *)

(* Lewis–Shedler thinning against the envelope mean*(1+amplitude): each
   candidate gap is Exp(lambda_max); accept with probability
   lambda(t)/lambda_max.  Exact for any bounded rate function. *)
let rec emit_diurnal t =
  match t.spec.process with
  | Diurnal { mean_rate_per_s = m; amplitude = a; period_s = p } ->
      let lambda_max = m *. (1.0 +. a) in
      t.fl.now_s <- t.fl.now_s +. exp_draw t.rng lambda_max;
      let phase = two_pi *. t.fl.now_s /. p in
      let lambda = m *. (1.0 +. (a *. sin phase)) in
      if unit_draw t.rng *. lambda_max >= lambda then emit_diurnal t
  | Poisson _ | Mmpp _ -> ()

(* Emit Poisson arrivals at the dwelling state's rate; a candidate gap
   that overshoots the dwell is discarded and redrawn in the next state —
   valid because the exponential is memoryless.  Switches and dwells draw
   from [t.chain] only, so every stream of one seed walks the same chain
   whatever its arrival rate. *)
let rec emit_mmpp t =
  match t.spec.process with
  | Mmpp { rates_per_s; mean_dwell_s } ->
      let rate = Array.unsafe_get rates_per_s t.mmpp_state in
      let candidate = t.fl.now_s +. exp_draw t.rng rate in
      if candidate <= t.fl.dwell_until_s then t.fl.now_s <- candidate
      else begin
        t.fl.now_s <- t.fl.dwell_until_s;
        let k = Array.length rates_per_s in
        (if k > 1 then
           (* Uniform switch to a *different* state. *)
           let j = Rng.int t.chain (k - 1) in
           t.mmpp_state <- (if j >= t.mmpp_state then j + 1 else j));
        t.fl.dwell_until_s <-
          t.fl.now_s +. exp_draw t.chain (1.0 /. mean_dwell_s);
        emit_mmpp t
      end
  | Poisson _ | Diurnal _ -> ()

let next t =
  (match t.spec.process with
  | Poisson { rate_per_s } ->
      t.fl.now_s <- t.fl.now_s +. exp_draw t.rng rate_per_s
  | Diurnal _ -> emit_diurnal t
  | Mmpp _ -> emit_mmpp t);
  t.clock.arrival_s <- t.fl.now_s;
  t.prefill_tokens <- draw_tokens t t.spec.prefill ~decode:false;
  t.decode_tokens <- draw_tokens t t.spec.decode ~decode:true;
  t.user <- (if t.spec.users = 1 then 0 else Rng.int t.rng t.spec.users);
  t.generated <- t.generated + 1

let clock t = t.clock
let arrival_s t = t.clock.arrival_s
let prefill_tokens t = t.prefill_tokens
let decode_tokens t = t.decode_tokens
let user t = t.user
let mmpp_state t = t.mmpp_state
