open Hnlpu_tensor

type stats = {
  produced : int;
  target_passes : int;
  drafted : int;
  accepted : int;
  acceptance_rate : float;
  tokens_per_pass : float;
}

let generate ~target ~draft ~prompt ~max_new_tokens ~lookahead () =
  if prompt = [] then invalid_arg "Speculative.generate: empty prompt";
  if lookahead <= 0 then invalid_arg "Speculative.generate: lookahead must be positive";
  if (Transformer.config target).Config.vocab <> (Transformer.config draft).Config.vocab
  then invalid_arg "Speculative.generate: vocabulary mismatch";
  Transformer.reset target;
  Transformer.reset draft;
  let t_logits = ref (Transformer.prefill target prompt) in
  let d_logits = ref (Transformer.prefill draft prompt) in
  let t_state = ref target and d_state = ref draft in
  let out = ref [] and produced = ref 0 in
  let passes = ref 0 and drafted = ref 0 and accepted_total = ref 0 in
  while !produced < max_new_tokens do
    (* 1. Draft proposes [lookahead] tokens greedily from its state. *)
    let dfork = Transformer.fork !d_state in
    let dlog = ref !d_logits in
    let proposals = ref [] in
    for _ = 1 to lookahead do
      let tok = Vec.argmax !dlog in
      proposals := tok :: !proposals;
      dlog := Transformer.forward dfork ~token:tok
    done;
    let proposals = List.rev !proposals in
    drafted := !drafted + lookahead;
    (* 2. One target verification pass over the proposal block. *)
    incr passes;
    let tfork = Transformer.fork !t_state in
    let tl = ref !t_logits in
    let accepted = ref [] in
    let corrected = ref None in
    List.iter
      (fun tok ->
        match !corrected with
        | Some _ -> ()
        | None ->
          let greedy = Vec.argmax !tl in
          if greedy = tok then begin
            accepted := tok :: !accepted;
            tl := Transformer.forward tfork ~token:tok
          end
          else corrected := Some greedy)
      proposals;
    let bonus = match !corrected with Some g -> g | None -> Vec.argmax !tl in
    let accepted = List.rev !accepted in
    accepted_total := !accepted_total + List.length accepted;
    (* 3. Emit, respecting the budget. *)
    let emit tok =
      if !produced < max_new_tokens then begin
        out := tok :: !out;
        incr produced
      end
    in
    List.iter emit accepted;
    emit bonus;
    (* 4. Advance both canonical states onto accepted + bonus. *)
    t_logits := Transformer.forward tfork ~token:bonus;
    t_state := tfork;
    let dnew = Transformer.fork !d_state in
    let dl = ref !d_logits in
    List.iter (fun tok -> dl := Transformer.forward dnew ~token:tok) accepted;
    dl := Transformer.forward dnew ~token:bonus;
    d_state := dnew;
    d_logits := !dl
  done;
  let produced = !produced in
  ( List.rev !out,
    {
      produced;
      target_passes = !passes;
      drafted = !drafted;
      accepted = !accepted_total;
      acceptance_rate =
        (if !drafted = 0 then 0.0 else float_of_int !accepted_total /. float_of_int !drafted);
      tokens_per_pass =
        (if !passes = 0 then 0.0 else float_of_int produced /. float_of_int !passes);
    } )
