open Hnlpu_tensor

type report = {
  sequences : int;
  tokens_scored : int;
  ppl_float : float;
  ppl_fp4 : float;
  ppl_ratio : float;
  hidden_cosine : float;
  top1_agreement : float;
}

let cosine a b =
  let na = Vec.norm2 a and nb = Vec.norm2 b in
  if na = 0.0 || nb = 0.0 then 0.0 else Vec.dot a b /. (na *. nb)

(* Per-sequence partial sums; reduced in sequence order so the report is
   independent of the domain count. *)
type partial = {
  p_nll_float : float;
  p_nll_fp4 : float;
  p_scored : int;
  p_cos_sum : float;
  p_cos_n : int;
  p_agree : int;
  p_steps : int;
}

let sequences = 8
let length = 12

let evaluate rng (c : Config.t) =
  let w_float = Weights.random ~quantize_fp4:false (Hnlpu_util.Rng.split rng) c in
  let w_fp4 = Weights.quantize w_float in
  (* All token draws happen sequentially here, in the same order as the
     sequential evaluator; only the scoring fans out, over fresh
     transformer instances sharing the immutable weights. *)
  let token_lists =
    List.init sequences (fun _ ->
        List.init length (fun _ -> Hnlpu_util.Rng.int rng c.Config.vocab))
  in
  let score tokens =
    let m_float = Transformer.create w_float in
    let m_fp4 = Transformer.create w_fp4 in
    let nll_float = ref 0.0 and nll_fp4 = ref 0.0 in
    let scored = ref 0 in
    let cos_sum = ref 0.0 and cos_n = ref 0 in
    let agree = ref 0 and steps = ref 0 in
    (match tokens with
    | [] -> ()
    | first :: rest ->
      let lf = ref (Transformer.forward m_float ~token:first) in
      let lq = ref (Transformer.forward m_fp4 ~token:first) in
      List.iter
        (fun tok ->
          nll_float := !nll_float -. log (Vec.softmax !lf).(tok);
          nll_fp4 := !nll_fp4 -. log (Vec.softmax !lq).(tok);
          incr scored;
          if Vec.argmax !lf = Vec.argmax !lq then incr agree;
          incr steps;
          lf := Transformer.forward m_float ~token:tok;
          lq := Transformer.forward m_fp4 ~token:tok;
          cos_sum :=
            !cos_sum
            +. cosine (Transformer.hidden_state m_float) (Transformer.hidden_state m_fp4);
          incr cos_n)
        rest);
    {
      p_nll_float = !nll_float;
      p_nll_fp4 = !nll_fp4;
      p_scored = !scored;
      p_cos_sum = !cos_sum;
      p_cos_n = !cos_n;
      p_agree = !agree;
      p_steps = !steps;
    }
  in
  let parts = Hnlpu_par.Par.parallel_map score token_lists in
  let nll_float = ref 0.0 and nll_fp4 = ref 0.0 in
  let scored = ref 0 in
  let cos_sum = ref 0.0 and cos_n = ref 0 in
  let agree = ref 0 and steps = ref 0 in
  List.iter
    (fun p ->
      nll_float := !nll_float +. p.p_nll_float;
      nll_fp4 := !nll_fp4 +. p.p_nll_fp4;
      scored := !scored + p.p_scored;
      cos_sum := !cos_sum +. p.p_cos_sum;
      cos_n := !cos_n + p.p_cos_n;
      agree := !agree + p.p_agree;
      steps := !steps + p.p_steps)
    parts;
  let n = float_of_int !scored in
  let ppl_float = exp (!nll_float /. n) and ppl_fp4 = exp (!nll_fp4 /. n) in
  {
    sequences;
    tokens_scored = !scored;
    ppl_float;
    ppl_fp4;
    ppl_ratio = ppl_fp4 /. ppl_float;
    hidden_cosine = !cos_sum /. float_of_int !cos_n;
    top1_agreement = float_of_int !agree /. float_of_int !steps;
  }
