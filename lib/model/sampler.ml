open Hnlpu_tensor

type strategy =
  | Greedy
  | Temperature of float
  | Top_k of int * float
  | Top_p of float * float

let check_temp t =
  if not (t > 0.0) then invalid_arg "Sampler: temperature must be positive"

let multinomial rng probs =
  let u = Hnlpu_util.Rng.float rng 1.0 in
  let n = Array.length probs in
  let rec go i acc =
    if i >= n - 1 then n - 1
    else begin
      let acc = acc +. probs.(i) in
      if u < acc then i else go (i + 1) acc
    end
  in
  go 0 0.0

let dist strategy logits =
  match strategy with
  | Greedy ->
    let d = Array.make (Array.length logits) 0.0 in
    d.(Vec.argmax logits) <- 1.0;
    d
  | Temperature t ->
    check_temp t;
    Vec.softmax (Vec.scale (1.0 /. t) logits)
  | Top_k (k, t) ->
    check_temp t;
    if k <= 0 then invalid_arg "Sampler: k must be positive";
    let k = min k (Array.length logits) in
    let top = Vec.top_k k logits in
    let masked = Array.make (Array.length logits) neg_infinity in
    List.iter (fun (i, v) -> masked.(i) <- v /. t) top;
    Vec.softmax masked
  | Top_p (p, t) ->
    check_temp t;
    if not (p > 0.0 && p <= 1.0) then invalid_arg "Sampler: p must be in (0, 1]";
    let probs = Vec.softmax (Vec.scale (1.0 /. t) logits) in
    (* Keep the most likely tokens until their mass reaches p; the token
       that crosses the threshold is included (standard nucleus rule). *)
    let order = Vec.top_k (Array.length probs) probs in
    let keep = Array.make (Array.length probs) false in
    let rec take mass = function
      | [] -> ()
      | (i, q) :: rest ->
        keep.(i) <- true;
        let mass = mass +. q in
        if mass < p then take mass rest
    in
    take 0.0 order;
    let z = ref 0.0 in
    Array.iteri (fun i q -> if keep.(i) then z := !z +. q) probs;
    Array.mapi (fun i q -> if keep.(i) then q /. !z else 0.0) probs

let distribution = dist

let sample rng strategy logits = multinomial rng (dist strategy logits)

let log_prob strategy logits token =
  let p = (dist strategy logits).(token) in
  if p <= 0.0 then neg_infinity else log p

let with_repetition_penalty ~penalty ~recent logits =
  if penalty <= 1.0 then invalid_arg "Sampler: penalty must exceed 1.0";
  let out = Array.copy logits in
  List.iter
    (fun tok ->
      if tok >= 0 && tok < Array.length out then
        out.(tok) <-
          (if out.(tok) > 0.0 then out.(tok) /. penalty else out.(tok) *. penalty))
    recent;
  out
