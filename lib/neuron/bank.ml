type t = {
  in_features : int;
  out_features : int;
  act_bits : int;
  capacity : int;
  histogram : int array;
  load : int array;
}

let regions = 16

let region_capacity ~slack n =
  let balanced = (n + regions - 1) / regions in
  int_of_float (ceil (float_of_int balanced *. slack))

let of_gemv ?(slack = 2.0) (g : Gemv.t) =
  if slack < 1.0 then invalid_arg "Bank.of_gemv: slack below 1.0";
  let n = g.Gemv.in_features in
  let capacity = region_capacity ~slack n in
  let histogram = Array.make regions 0 and load = Array.make regions 0 in
  let counts = Array.make regions 0 in
  for o = 0 to g.Gemv.out_features - 1 do
    Array.fill counts 0 regions 0;
    for k = o * n to ((o + 1) * n) - 1 do
      (* The checked index turns a byte that is no code into an error. *)
      let c = Char.code (Bytes.unsafe_get g.Gemv.codes k) in
      counts.(c) <- counts.(c) + 1
    done;
    for c = 0 to regions - 1 do
      let k = counts.(c) in
      if k > capacity then
        invalid_arg
          (Printf.sprintf
             "Bank.of_gemv: neuron %d region %d holds %d wires, capacity %d — \
              increase slack"
             o c k capacity);
      histogram.(c) <- histogram.(c) + k;
      load.(c) <- max load.(c) k
    done
  done;
  {
    in_features = n;
    out_features = g.Gemv.out_features;
    act_bits = g.Gemv.act_bits;
    capacity;
    histogram;
    load;
  }
