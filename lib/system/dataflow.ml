open Hnlpu_tensor
open Hnlpu_model
open Hnlpu_noc

(* One chip's slices of a layer's attention projections.  The router is
   replicated and each expert lives whole on one chip, so the FFN reads
   the layer's own records. *)
type chip_layer_weights = { wq : Mat.t; wk : Mat.t; wv : Mat.t; wo : Mat.t }

(* One chip's share of a column's KV cache for one layer: the positions it
   holds, in increasing order, and their K and V rows (width kv_dim / 4,
   the column's KV heads) back to back.  The buffers double when full. *)
type stripe = {
  mutable n : int;
  mutable positions : int array;
  mutable ks : float array;
  mutable vs : float array;
}

type collective_counts = {
  col_all_reduce : int;
  col_reduce : int;
  row_all_reduce : int;
  col_all_gather : int;
  all_chip_all_reduce : int;
}

type t = {
  weights : Weights.t;
  config : Config.t;
  chip_weights : chip_layer_weights array array;  (** [layer].[chip] *)
  kv : stripe array array;  (** [layer].[chip] *)
  mutable pos : int;
  tally : int array;  (** Collectives performed, per {!Layer_program} entry. *)
}

let create (w : Weights.t) =
  let c = w.Weights.config in
  Mapping.check_mappable c;
  (* Each expert runs on the chip that holds it. *)
  for expert = 0 to c.Config.experts - 1 do
    let chip = Mapping.chip_of_expert c ~expert in
    if not (List.mem expert (Mapping.experts_of_chip c ~chip)) then
      invalid_arg (Printf.sprintf "Dataflow.create: expert %d is not resident on chip %d" expert chip)
  done;
  let slice_layer (l : Weights.layer) chip =
    {
      wq = Mapping.extract l.Weights.wq (Mapping.wq_slice c ~chip);
      wk = Mapping.extract l.Weights.wk (Mapping.wk_slice c ~chip);
      wv = Mapping.extract l.Weights.wv (Mapping.wv_slice c ~chip);
      wo = Mapping.extract l.Weights.wo (Mapping.wo_slice c ~chip);
    }
  in
  {
    weights = w;
    config = c;
    chip_weights =
      Array.map
        (fun l -> Array.of_list (List.map (slice_layer l) Topology.all_chips))
        w.Weights.layers;
    kv =
      Array.init c.Config.num_layers (fun _ ->
          Array.init Topology.chips (fun _ ->
              { n = 0; positions = [||]; ks = [||]; vs = [||] }));
    pos = 0;
    tally = Array.make (List.length Layer_program.program) 0;
  }

let position t = t.pos

let tally t op =
  let i = Layer_program.index op in
  t.tally.(i) <- t.tally.(i) + 1

let collectives t =
  let count kind group =
    let n = ref 0 in
    List.iteri
      (fun i (e : Layer_program.entry) ->
        if e.kind = kind && e.group = group then n := !n + t.tally.(i))
      Layer_program.program;
    !n
  in
  let open Layer_program in
  {
    col_all_reduce = count All_reduce Each_column;
    col_reduce = count Reduce Each_column;
    row_all_reduce = count All_reduce Each_row;
    col_all_gather = count All_gather Each_column;
    all_chip_all_reduce = count All_chip_all_reduce All_chips;
  }

let kv_positions_on_chip t ~chip ~layer = t.kv.(layer).(chip).n

let grow buf ~used ~need ~zero =
  if need <= Array.length buf then buf
  else begin
    let bigger = Array.make (max need (2 * Array.length buf)) zero in
    Array.blit buf 0 bigger 0 used;
    bigger
  end

let stripe_append st ~pos ~k ~v =
  let width = Array.length k in
  let used = st.n * width in
  st.positions <- grow st.positions ~used:st.n ~need:(st.n + 1) ~zero:0;
  st.ks <- grow st.ks ~used ~need:(used + width) ~zero:0.0;
  st.vs <- grow st.vs ~used ~need:(used + width) ~zero:0.0;
  st.positions.(st.n) <- pos;
  Array.blit k 0 st.ks used width;
  Array.blit v 0 st.vs used width;
  st.n <- st.n + 1

(* A stripe's positions ascend, so a window is a start index: the first
   entry at or after [pos]. *)
let rec stripe_start st ~pos j =
  if j < st.n && st.positions.(j) < pos then stripe_start st ~pos (j + 1) else j

(* Column collective [op] of one projection: each chip's partial product
   over its slice of [x] sums into one buffer in group order.  An
   all-reduce leaves the sum on every chip of the column, a reduce only on
   the KV owner, which alone stores it; either way the value is the
   same. *)
let col_sum t op ~col lw proj x =
  tally t op;
  let out = Array.make (Mat.cols (proj lw.(0))) 0.0 in
  List.iter
    (fun chip ->
      let lo, _ = Mapping.x_slice t.config ~chip in
      Mat.gemv_into (proj lw.(chip)) x ~xo:lo out ~oo:0)
    (Topology.col_group col);
  out

(* The GQA attention of one column for one token, over the column's
   striped KV cache (Figure 10-IV/V).  [q_col] holds the column's
   q_heads/4 query heads; each chip contributes statistics over its own
   positions, one {!Attention.pass} per local KV head, combined exactly as
   the VEX units would after the column-wise exchange.  K and V are read
   in place from the stripes. *)
let column_attention t ~layer ~col q_col =
  let c = t.config in
  let d = c.Config.head_dim in
  (* Sliding-window layers only attend over the last [w] positions. *)
  let first_pos =
    match Config.layer_window c ~layer with
    | None -> 0
    | Some w -> max 0 (t.pos + 1 - w)
  in
  let heads = c.Config.q_heads / 4 in
  let group = Config.gqa_group c in
  let width = Config.kv_dim c / 4 in
  let stripes = t.kv.(layer) in
  (* Per-chip partials of every head: weighted values and (max, sum). *)
  let accs = Array.make (Topology.rows * heads * d) 0.0 in
  let stats = Array.make (Topology.rows * heads * 2) 0.0 in
  for row = 0 to Topology.rows - 1 do
    let st = stripes.(Topology.chip_at ~row ~col) in
    let first = stripe_start st ~pos:first_pos 0 in
    for kh = 0 to (width / d) - 1 do
      let h0 = (row * heads) + (kh * group) in
      Attention.pass ~q:q_col ~qo:(kh * group * d) ~heads:group ~head_dim:d ~ks:st.ks
        ~vs:st.vs ~stride:width ~kvo:(kh * d) ~first ~stop:st.n ~acc:accs
        ~ao:(h0 * d) ~stats ~so:(2 * h0)
    done
  done;
  (* Column-wise exchange and exact combination of the partials. *)
  let out = Array.make (heads * d) 0.0 in
  let global_m = ref neg_infinity and z = ref 0.0 in
  for hq = 0 to heads - 1 do
    let qo = hq * d in
    global_m := neg_infinity;
    for row = 0 to Topology.rows - 1 do
      let m = stats.(2 * ((row * heads) + hq)) in
      if m > !global_m then global_m := m
    done;
    z := 0.0;
    for row = 0 to Topology.rows - 1 do
      let h = (row * heads) + hq in
      if stats.((2 * h) + 1) > 0.0 then begin
        let corr = exp (stats.(2 * h) -. !global_m) in
        z := !z +. (stats.((2 * h) + 1) *. corr);
        for i = 0 to d - 1 do
          out.(qo + i) <- out.(qo + i) +. (accs.((h * d) + i) *. corr)
        done
      end
    done;
    for i = 0 to d - 1 do
      out.(qo + i) <- out.(qo + i) /. !z
    done
  done;
  (* One statistics and one partial-O exchange per column covers all of
     its query heads. *)
  tally t Layer_program.Stats;
  tally t Layer_program.Partial_o;
  out

let layer_forward t ~layer ~angles x =
  let lw = t.chip_weights.(layer) in
  (* Attention block: RMSNorm is replicated on every chip. *)
  let l = t.weights.Weights.layers.(layer) in
  let x_norm = Vec.rmsnorm ~gain:l.Weights.attn_norm x in
  (* Per-column QKV: per-chip partial products summed by the column's
     collectives, then column-local attention. *)
  let attn_cols =
    Array.init Topology.cols (fun col ->
        let q = col_sum t Layer_program.Q ~col lw (fun w -> w.wq) x_norm in
        let k = col_sum t Layer_program.K ~col lw (fun w -> w.wk) x_norm in
        let v = col_sum t Layer_program.V ~col lw (fun w -> w.wv) x_norm in
        Rope.rotate angles q;
        Rope.rotate angles k;
        (* Store the new KV on chip (pos mod 4) of this column. *)
        let owner = Topology.kv_owner ~seq_pos:t.pos ~col in
        stripe_append t.kv.(layer).(owner) ~pos:t.pos ~k ~v;
        column_attention t ~layer ~col q)
  in
  (* Output projection: row r sums its four columns' partials into output
     slice r (row all-reduce), and the column all-gather assembles the
     slices (Figure 10-VI). *)
  let xo = Array.make (Array.length x) 0.0 in
  let slice = Array.length x / Topology.rows in
  for row = 0 to Topology.rows - 1 do
    for col = 0 to Topology.cols - 1 do
      Mat.gemv_into lw.(Topology.chip_at ~row ~col).wo attn_cols.(col) ~xo:0 xo
        ~oo:(row * slice)
    done;
    tally t Layer_program.Xo_row
  done;
  for _ = 1 to Topology.cols do
    tally t Layer_program.Xo_gather
  done;
  let x = Vec.add x xo in
  (* FFN with MoE (Figure 10-VII..IX): the router is replicated and each
     selected expert computes on its resident chip; the weighted partials
     meet in an all-chip all-reduce. *)
  let y, _ = Transformer.ffn t.config l (Vec.rmsnorm ~gain:l.Weights.ffn_norm x) in
  if Option.is_some l.Weights.w_router then tally t Layer_program.Moe;
  Vec.add x y

let forward t ~token =
  let c = t.config in
  if token < 0 || token >= c.Config.vocab then
    invalid_arg "Dataflow.forward: token out of vocabulary";
  let x = ref (Mat.row t.weights.Weights.embedding token) in
  let angles = Rope.angles ~head_dim:c.Config.head_dim ~pos:t.pos in
  for layer = 0 to c.Config.num_layers - 1 do
    x := layer_forward t ~layer ~angles !x
  done;
  t.pos <- t.pos + 1;
  let final = Vec.rmsnorm ~gain:t.weights.Weights.final_norm !x in
  Mat.gemv t.weights.Weights.unembedding final
