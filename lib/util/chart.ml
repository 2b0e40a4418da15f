let bar ?(log = false) rows =
  if rows = [] then invalid_arg "Chart.bar: empty";
  let label_w =
    List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 rows
  in
  let transform v =
    if log then begin
      if v <= 0.0 then invalid_arg "Chart.bar: log scale needs positive values";
      Stdlib.log v
    end
    else begin
      if v < 0.0 then invalid_arg "Chart.bar: negative value";
      v
    end
  in
  let tvals = List.map (fun (_, v) -> transform v) rows in
  let lo = if log then List.fold_left Float.min infinity tvals -. 0.5 else 0.0 in
  let hi = List.fold_left Float.max neg_infinity tvals in
  let span = Float.max (hi -. lo) 1e-12 in
  let buf = Buffer.create 256 in
  List.iter2
    (fun (label, v) tv ->
      let n = int_of_float (Float.round (50.0 *. (tv -. lo) /. span)) in
      Buffer.add_string buf
        (Printf.sprintf "%-*s |%s %g\n" label_w label (String.make (max 0 n) '#') v))
    rows tvals;
  Buffer.contents buf

let fills = [| '#'; '='; '-'; '.'; '+'; '*'; 'o'; '~' |]

let stacked ~legend rows =
  let width = 60 in
  if rows = [] then invalid_arg "Chart.stacked: empty";
  let segs = List.length legend in
  List.iter
    (fun (_, vs) ->
      if List.length vs <> segs then invalid_arg "Chart.stacked: arity mismatch";
      if List.exists (fun v -> v < 0.0) vs then
        invalid_arg "Chart.stacked: negative segment")
    rows;
  let label_w =
    List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 rows
  in
  let buf = Buffer.create 512 in
  List.iter
    (fun (label, vs) ->
      let total = List.fold_left ( +. ) 0.0 vs in
      Buffer.add_string buf (Printf.sprintf "%-*s |" label_w label);
      if total > 0.0 then begin
        (* Largest-remainder rounding so the bar is exactly [width] wide. *)
        let raw = List.map (fun v -> float_of_int width *. v /. total) vs in
        let floors = List.map (fun r -> int_of_float (floor r)) raw in
        let short = width - List.fold_left ( + ) 0 floors in
        let order =
          List.mapi (fun i r -> (i, r -. floor r)) raw
          |> List.sort (fun (_, a) (_, b) -> compare b a)
          |> List.filteri (fun rank _ -> rank < short)
          |> List.map fst
        in
        List.iteri
          (fun i n ->
            let n = if List.mem i order then n + 1 else n in
            Buffer.add_string buf (String.make n fills.(i mod Array.length fills)))
          floors
      end;
      Buffer.add_string buf "|\n")
    rows;
  Buffer.add_string buf "\nlegend: ";
  List.iteri
    (fun i name ->
      Buffer.add_string buf
        (Printf.sprintf "%c=%s  " fills.(i mod Array.length fills) name))
    legend;
  Buffer.add_char buf '\n';
  Buffer.contents buf
