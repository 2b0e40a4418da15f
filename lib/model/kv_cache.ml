(* One layer's cache: position [p]'s flat K projection is
   [ks.(p * width) .. ks.(p * width + width - 1)], likewise V.  The buffers
   double when full, so an append is amortized O(width). *)
type layer_cache = {
  mutable ks : float array;
  mutable vs : float array;
  mutable n : int;
}

type t = { config : Config.t; layers : layer_cache array }

let create (c : Config.t) =
  {
    config = c;
    layers = Array.init c.num_layers (fun _ -> { ks = [||]; vs = [||]; n = 0 });
  }

let clear t = Array.iter (fun lc -> lc.n <- 0) t.layers

let copy t =
  {
    t with
    layers =
      Array.map
        (fun lc -> { ks = Array.copy lc.ks; vs = Array.copy lc.vs; n = lc.n })
        t.layers;
  }

let length t ~layer = t.layers.(layer).n

let grow buf ~used ~need =
  if need <= Array.length buf then buf
  else begin
    let bigger = Array.make (max need (2 * Array.length buf)) 0.0 in
    Array.blit buf 0 bigger 0 used;
    bigger
  end

let append t ~layer ~k ~v =
  let dim = Config.kv_dim t.config in
  if Array.length k <> dim || Array.length v <> dim then
    invalid_arg "Kv_cache.append: wrong projection width";
  let lc = t.layers.(layer) in
  let used = lc.n * dim in
  lc.ks <- grow lc.ks ~used ~need:(used + dim);
  lc.vs <- grow lc.vs ~used ~need:(used + dim);
  Array.blit k 0 lc.ks used dim;
  Array.blit v 0 lc.vs used dim;
  lc.n <- lc.n + 1

let keys t ~layer = t.layers.(layer).ks
let values t ~layer = t.layers.(layer).vs

let bytes_per_position (c : Config.t) ~kv_bytes_per_element =
  2 * c.num_layers * Config.kv_dim c * kv_bytes_per_element
