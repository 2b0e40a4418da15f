open Hnlpu_tensor

type t = { a : Mat.t; b : Mat.t }

(* alpha = 2 * rank, so the delta is scaled by alpha / rank = 2. *)
let scaling = 2.0

let of_matrices ~a ~b () =
  if Mat.cols a <> Mat.rows b then invalid_arg "Lora.of_matrices: rank mismatch";
  { a; b }

let create rng ~in_features ~out_features ~rank =
  if rank <= 0 || rank > min in_features out_features then
    invalid_arg "Lora.create: bad rank";
  of_matrices
    ~a:(Mat.gaussian rng ~rows:in_features ~cols:rank)
    ~b:(Mat.create ~rows:rank ~cols:out_features)
    ()

let rank t = Mat.cols t.a

let delta t x = Vec.scale scaling (Mat.gemv t.b (Mat.gemv t.a x))

let apply t ~base x = Vec.add (base x) (delta t x)

let merged t w =
  if Mat.rows w <> Mat.rows t.a || Mat.cols w <> Mat.cols t.b then
    invalid_arg "Lora.merged: shape mismatch";
  Mat.init ~rows:(Mat.rows w) ~cols:(Mat.cols w) (fun i j ->
      let ab = ref 0.0 in
      for r = 0 to rank t - 1 do
        ab := !ab +. (Mat.get t.a i r *. Mat.get t.b r j)
      done;
      Mat.get w i j +. (scaling *. !ab))

let parameter_overhead t ~in_features ~out_features =
  float_of_int (rank t * (in_features + out_features))
  /. float_of_int (in_features * out_features)

module Side_channel = struct
  let fraction = 0.01

  let capacity_params (c : Config.t) = Params.hardwired c *. fraction

  let adapter_params_for_rank (c : Config.t) ~rank =
    (* Rank-r adapters on Wq/Wk/Wv/Wo and every expert's three
       projections, every layer. *)
    let r = float_of_int rank in
    let attn =
      r
      *. float_of_int
           ((c.Config.hidden + Config.q_dim c)
           + (2 * (c.Config.hidden + Config.kv_dim c))
           + (Config.q_dim c + c.Config.hidden))
    in
    let experts =
      r
      *. float_of_int (max 1 c.Config.experts)
      *. float_of_int (3 * (c.Config.hidden + c.Config.expert_hidden))
    in
    float_of_int c.Config.num_layers *. (attn +. experts)

  let supports_rank c ~rank =
    if rank <= 0 then invalid_arg "Side_channel.supports_rank";
    adapter_params_for_rank c ~rank <= capacity_params c

  let max_rank c =
    let rec go r = if supports_rank c ~rank:(r + 1) then go (r + 1) else r in
    go 0

  (* Field-programmable HNs must *store* their weights (register cells on
     the popcount routing), costing roughly an SRAM-cell-plus-mux per
     4-bit weight instead of a wire: ~10x the metal-embedded transistor
     cost per parameter. *)
  let field_programmable_cost_factor = 10.0

  let area_overhead_mm2 (c : Config.t) =
    let params_per_chip = capacity_params c /. 16.0 in
    params_per_chip *. 9.3 *. field_programmable_cost_factor
    /. (Hnlpu_gates.Tech.n5.transistor_density_per_mm2 *. 0.85)
end
