open Hnlpu_tensor

type t = {
  weights : Weights.t;
  cache : Kv_cache.t;
  expert_load : int array;
  mutable pos : int;
  mutable last_hidden : Vec.t;
}

let create (w : Weights.t) =
  {
    weights = w;
    cache = Kv_cache.create w.Weights.config;
    expert_load = Array.make (max 1 w.Weights.config.Config.experts) 0;
    pos = 0;
    last_hidden = [||];
  }

let config t = t.weights.Weights.config

let position t = t.pos

let fork t =
  {
    weights = t.weights;
    cache = Kv_cache.copy t.cache;
    expert_load = Array.copy t.expert_load;
    pos = t.pos;
    last_hidden = Array.copy t.last_hidden;
  }

let reset t =
  t.pos <- 0;
  Array.fill t.expert_load 0 (Array.length t.expert_load) 0;
  t.last_hidden <- [||];
  Kv_cache.clear t.cache

let attention t layer_idx (l : Weights.layer) ~angles x_norm =
  let c = config t in
  let d = c.Config.head_dim in
  let q = Mat.gemv l.Weights.wq x_norm in
  let k = Mat.gemv l.Weights.wk x_norm in
  let v = Mat.gemv l.Weights.wv x_norm in
  Rope.rotate angles q;
  Rope.rotate angles k;
  Kv_cache.append t.cache ~layer:layer_idx ~k ~v;
  let len = Kv_cache.length t.cache ~layer:layer_idx in
  let ks = Kv_cache.keys t.cache ~layer:layer_idx in
  let vs = Kv_cache.values t.cache ~layer:layer_idx in
  (* Sliding-window layers only attend over the last [w] positions. *)
  let first =
    match Config.layer_window c ~layer:layer_idx with
    | None -> 0
    | Some w -> max 0 (len - w)
  in
  (* One streaming-softmax pass per KV head covers its GQA group; each
     head accumulates straight into its slice of [out]. *)
  let group = Config.gqa_group c in
  let out = Array.make (Config.q_dim c) 0.0 in
  let stats = Array.make (2 * c.Config.q_heads) 0.0 in
  for kh = 0 to c.Config.kv_heads - 1 do
    Attention.pass ~q ~qo:(kh * group * d) ~heads:group ~head_dim:d ~ks ~vs
      ~stride:(Config.kv_dim c) ~kvo:(kh * d) ~first ~stop:len ~acc:out
      ~ao:(kh * group * d) ~stats ~so:(2 * kh * group)
  done;
  for i = 0 to Array.length out - 1 do
    out.(i) <- out.(i) /. stats.((2 * (i / d)) + 1)
  done;
  Mat.gemv l.Weights.wo out

let run_expert (e : Weights.expert) x =
  let gate = Mat.gemv e.Weights.w_gate x in
  let up = Mat.gemv e.Weights.w_up x in
  Mat.gemv e.Weights.w_down (Vec.swiglu ~gate ~up)

let ffn (c : Config.t) (l : Weights.layer) x_norm =
  match l.Weights.w_router with
  | None -> (run_expert l.Weights.experts.(0) x_norm, [ (0, 1.0) ])
  | Some router ->
    (* Router: scores, top-k selection, softmax over the selected scores
       (Figure 10-VII). *)
    let scores = Mat.gemv router x_norm in
    let top = Vec.top_k c.Config.experts_per_token scores in
    let raw = Array.of_list (List.map snd top) in
    let probs = Vec.softmax raw in
    let out = Vec.zeros c.Config.hidden in
    List.iteri
      (fun rank (e, _) ->
        Vec.add_inplace out
          (Vec.scale probs.(rank) (run_expert l.Weights.experts.(e) x_norm)))
      top;
    (out, top)

let forward t ~token =
  let c = config t in
  if token < 0 || token >= c.Config.vocab then
    invalid_arg "Transformer.forward: token out of vocabulary";
  let x = ref (Mat.row t.weights.Weights.embedding token) in
  let angles = Rope.angles ~head_dim:c.Config.head_dim ~pos:t.pos in
  Array.iteri
    (fun i l ->
      let x_norm = Vec.rmsnorm ~gain:l.Weights.attn_norm !x in
      let attn = attention t i l ~angles x_norm in
      x := Vec.add !x attn;
      let x_norm2 = Vec.rmsnorm ~gain:l.Weights.ffn_norm !x in
      let y, experts = ffn c l x_norm2 in
      List.iter (fun (e, _) -> t.expert_load.(e) <- t.expert_load.(e) + 1) experts;
      x := Vec.add !x y)
    t.weights.Weights.layers;
  t.pos <- t.pos + 1;
  t.last_hidden <- !x;
  let final = Vec.rmsnorm ~gain:t.weights.Weights.final_norm !x in
  Mat.gemv t.weights.Weights.unembedding final

let prefill t tokens =
  match tokens with
  | [] -> invalid_arg "Transformer.prefill: empty prompt"
  | _ ->
    List.fold_left (fun _ tok -> forward t ~token:tok) [||] tokens

let generate rng t ~prompt ~max_new_tokens strategy =
  let logits = ref (prefill t prompt) in
  let rec go n acc =
    if n >= max_new_tokens then List.rev acc
    else begin
      let tok = Sampler.sample rng strategy !logits in
      logits := forward t ~token:tok;
      go (n + 1) (tok :: acc)
    end
  in
  go 0 []

let score t tokens =
  match tokens with
  | [] | [ _ ] -> invalid_arg "Transformer.score: need at least two tokens"
  | first :: rest ->
    reset t;
    let logits = ref (forward t ~token:first) in
    List.fold_left
      (fun acc tok ->
        let logp = log (Vec.softmax !logits).(tok) in
        logits := forward t ~token:tok;
        acc +. logp)
      0.0 rest

let perplexity t tokens =
  let n = List.length tokens in
  exp (-.score t tokens /. float_of_int (n - 1))

let embed t tokens =
  if tokens = [] then invalid_arg "Transformer.embed: empty sequence";
  reset t;
  let c = config t in
  let acc = Vec.zeros c.Config.hidden in
  List.iter
    (fun tok ->
      ignore (forward t ~token:tok);
      Vec.add_inplace acc t.last_hidden)
    tokens;
  Vec.scale (1.0 /. float_of_int (List.length tokens)) acc

let expert_load t = Array.copy t.expert_load

let hidden_state t = Array.copy t.last_hidden
