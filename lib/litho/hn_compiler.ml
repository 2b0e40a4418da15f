open Hnlpu_neuron

type wire = {
  neuron : int;
  input : int;
  region : int;
  port : int;
  layer : string;
  track : int;
}

type netlist = {
  in_features : int;
  out_features : int;
  region_capacity : int;
  wires : wire list;
}

let layers = [| "M8"; "M9"; "M10"; "M11" |]

let compile ?(slack = 2.0) (g : Gemv.t) =
  let n = g.Gemv.in_features in
  let capacity = Bank.region_capacity ~slack n in
  (* One track counter per routing layer; wires round-robin across the four
     embedding layers, so each gets a fresh track — congestion-free by
     construction, which DRC then confirms. *)
  let track_next = Array.make (Array.length layers) 0 in
  let wires = ref [] in
  for neuron = 0 to g.Gemv.out_features - 1 do
    let port_next = Array.make Bank.regions 0 in
    for input = 0 to n - 1 do
      let region = Hnlpu_fp4.Fp4.code (Gemv.code g neuron input) in
      let port = port_next.(region) in
      if port >= capacity then
        invalid_arg
          (Printf.sprintf
             "Hn_compiler.compile: neuron %d region %d overflows capacity %d"
             neuron region capacity);
      port_next.(region) <- port + 1;
      let li = (neuron + input) mod Array.length layers in
      let track = track_next.(li) in
      track_next.(li) <- track + 1;
      wires := { neuron; input; region; port; layer = layers.(li); track } :: !wires
    done
  done;
  {
    in_features = n;
    out_features = g.Gemv.out_features;
    region_capacity = capacity;
    wires = List.rev !wires;
  }

let wire_count t = List.length t.wires

type diff_stats = {
  total_wires : int;
  rerouted : int;
  rerouted_fraction : float;
  layers_touched : string list;
}

let diff a b =
  if a.in_features <> b.in_features || a.out_features <> b.out_features then
    invalid_arg "Hn_compiler.diff: shape mismatch";
  if List.length a.wires <> List.length b.wires then
    invalid_arg "Hn_compiler.diff: wire count mismatch";
  let touched = Hashtbl.create 4 in
  let rerouted =
    List.fold_left2
      (fun acc wa wb ->
        if wa.neuron <> wb.neuron || wa.input <> wb.input then
          invalid_arg "Hn_compiler.diff: wire order mismatch";
        if wa.region <> wb.region then begin
          Hashtbl.replace touched wb.layer ();
          acc + 1
        end
        else acc)
      0 a.wires b.wires
  in
  let total = List.length a.wires in
  {
    total_wires = total;
    rerouted;
    rerouted_fraction = float_of_int rerouted /. float_of_int (max 1 total);
    layers_touched =
      List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) touched []);
  }

let to_tcl t =
  let buf = Buffer.create (64 * wire_count t) in
  Buffer.add_string buf
    (Printf.sprintf "# hn-netlist in=%d out=%d cap=%d\n" t.in_features
       t.out_features t.region_capacity);
  List.iter
    (fun w ->
      Buffer.add_string buf
        (Printf.sprintf
           "route -neuron %d -input %d -region %d -port %d -layer %s -track %d\n"
           w.neuron w.input w.region w.port w.layer w.track))
    t.wires;
  Buffer.contents buf

(* of_tcl rejects malformed scripts with the line number and the first
   offending token, so a broken hand-edited netlist points at itself. *)

let of_tcl s =
  let fail line fmt =
    Printf.ksprintf
      (fun msg -> failwith (Printf.sprintf "Hn_compiler.of_tcl: line %d: %s" line msg))
      fmt
  in
  let lines = String.split_on_char '\n' s in
  let header, rest =
    match lines with
    | h :: rest -> (h, rest)
    | [] -> failwith "Hn_compiler.of_tcl: empty script"
  in
  let in_features, out_features, region_capacity =
    try Scanf.sscanf header "# hn-netlist in=%d out=%d cap=%d" (fun a b c -> (a, b, c))
    with Scanf.Scan_failure _ | End_of_file ->
      fail 1 "bad header %S (expected '# hn-netlist in=N out=N cap=N')" header
  in
  if in_features <= 0 || out_features <= 0 then
    fail 1 "non-positive bank shape %dx%d" in_features out_features;
  if region_capacity <= 0 then fail 1 "non-positive capacity %d" region_capacity;
  (* Tokens a route statement must carry, in order. *)
  let grammar =
    [
      `Kw "route"; `Kw "-neuron"; `Int "neuron"; `Kw "-input"; `Int "input";
      `Kw "-region"; `Int "region"; `Kw "-port"; `Int "port"; `Kw "-layer";
      `Layer; `Kw "-track"; `Int "track";
    ]
  in
  let parse_route lineno line =
    let tokens =
      List.filter (( <> ) "") (String.split_on_char ' ' (String.trim line))
    in
    let ints = Hashtbl.create 8 in
    let layer = ref "" in
    let rec walk grammar tokens =
      match (grammar, tokens) with
      | [], [] -> ()
      | [], tok :: _ -> fail lineno "trailing token %S" tok
      | `Kw kw :: _, [] -> fail lineno "truncated statement: missing %S" kw
      | `Int field :: _, [] -> fail lineno "truncated statement: missing <%s>" field
      | `Layer :: _, [] -> fail lineno "truncated statement: missing <layer>"
      | `Kw kw :: g, tok :: t ->
        if tok <> kw then fail lineno "expected %S, got token %S" kw tok;
        walk g t
      | `Int field :: g, tok :: t ->
        (match int_of_string_opt tok with
        | Some v when v >= 0 -> Hashtbl.replace ints field v
        | Some v -> fail lineno "negative %s %d" field v
        | None -> fail lineno "bad %s token %S (expected an integer)" field tok);
        walk g t
      | `Layer :: g, tok :: t ->
        if not (Array.exists (( = ) tok) layers) then
          fail lineno "bad layer name %S (metal embedding uses M8-M11)" tok;
        layer := tok;
        walk g t
    in
    walk grammar tokens;
    let get field = Hashtbl.find ints field in
    let neuron = get "neuron" and input = get "input" in
    if neuron >= out_features then
      fail lineno "neuron %d outside the %d-neuron bank" neuron out_features;
    if input >= in_features then
      fail lineno "input %d outside the %d-input bank" input in_features;
    if get "region" > 15 then fail lineno "region %d outside E2M1's 16 codes" (get "region");
    {
      neuron;
      input;
      region = get "region";
      port = get "port";
      layer = !layer;
      track = get "track";
    }
  in
  let seen = Hashtbl.create 1024 in
  let wires =
    List.concat
      (List.mapi
         (fun i line ->
           let lineno = i + 2 in
           if String.trim line = "" then []
           else begin
             let w = parse_route lineno line in
             (match Hashtbl.find_opt seen (w.neuron, w.input) with
             | Some first ->
               fail lineno "duplicate wire for neuron %d input %d (first at line %d)"
                 w.neuron w.input first
             | None -> Hashtbl.add seen (w.neuron, w.input) lineno);
             [ w ]
           end)
         rest)
  in
  { in_features; out_features; region_capacity; wires }

let extract_weights t =
  let m =
    Array.init t.out_features (fun _ -> Array.make t.in_features Hnlpu_fp4.Fp4.zero)
  in
  let seen = Array.make_matrix t.out_features t.in_features false in
  List.iter
    (fun w ->
      if w.neuron < 0 || w.neuron >= t.out_features || w.input < 0
         || w.input >= t.in_features
      then failwith "Hn_compiler.extract_weights: wire out of bank";
      if seen.(w.neuron).(w.input) then
        failwith "Hn_compiler.extract_weights: duplicate wire";
      seen.(w.neuron).(w.input) <- true;
      m.(w.neuron).(w.input) <- Hnlpu_fp4.Fp4.of_code w.region)
    t.wires;
  Array.iteri
    (fun o row ->
      Array.iteri
        (fun i covered ->
          if not covered then
            failwith
              (Printf.sprintf "Hn_compiler.extract_weights: missing wire %d.%d" o i))
        row;
      ignore o)
    seen;
  m

let lvs t (g : Gemv.t) =
  t.in_features = g.Gemv.in_features
  && t.out_features = g.Gemv.out_features
  && wire_count t = Gemv.total_macs g
  &&
  try
    let extracted = extract_weights t in
    let ok = ref true in
    Array.iteri
      (fun o row ->
        Array.iteri
          (fun i w -> if not (Hnlpu_fp4.Fp4.equal w (Gemv.code g o i)) then ok := false)
          row)
      extracted;
    !ok
  with Failure _ -> false

type drc_violation =
  | Track_conflict of string * int * wire list
  | Port_overflow of int * int * wire list
  | Out_of_window of wire

(* The compiler hands layer (neuron + input) mod 4 to each wire, so a row
   of n inputs puts at most ceil(n/4) wires on any one layer, and the
   per-layer track counter never exceeds out * ceil(in/4).  That is the
   exact window the reticle must provision — not "comfortably above". *)
let max_tracks_per_layer t =
  let l = Array.length layers in
  t.out_features * ((t.in_features + l - 1) / l)

(* The wires sharing a key, each run in wire order, runs in key order: a
   stable sort by the key, cut where the key changes.  (A list sort: an
   array this long lives in the major heap, where every store of the
   merge pays a write barrier.) *)
let runs cmp wires =
  let rec cut groups run = function
    | [] -> List.rev (List.rev run :: groups)
    | w :: rest -> (
      match run with
      | prev :: _ when cmp prev w <> 0 -> cut (List.rev run :: groups) [ w ] rest
      | _ -> cut groups (w :: run) rest)
  in
  match List.stable_sort cmp wires with [] -> [] | w :: rest -> cut [] [ w ] rest

let by_track a b =
  match Int.compare a.track b.track with 0 -> String.compare a.layer b.layer | c -> c

let by_port a b =
  match Int.compare a.neuron b.neuron with 0 -> Int.compare a.region b.region | c -> c

let drc t =
  let limit = max_tracks_per_layer t in
  let violations = ref [] in
  List.iter
    (fun w ->
      if not (Array.exists (String.equal w.layer) layers) then
        violations := Out_of_window w :: !violations;
      if w.track < 0 || w.track >= limit then
        violations := Out_of_window w :: !violations)
    t.wires;
  (* Conflicts in (track, layer) order, then overflows in (neuron, region)
     order. *)
  let conflicts =
    List.filter_map
      (function
        | w :: _ :: _ as ws -> Some (Track_conflict (w.layer, w.track, ws))
        | _ -> None)
      (runs by_track t.wires)
  in
  let overflows =
    List.filter_map
      (function
        | w :: _ as ws when List.length ws > t.region_capacity ->
          Some (Port_overflow (w.neuron, w.region, ws))
        | _ -> None)
      (runs by_port t.wires)
  in
  List.rev_append !violations (conflicts @ overflows)

let report t =
  let per_layer = Hashtbl.create 8 in
  let region_fill = Array.make 16 0 in
  List.iter
    (fun w ->
      Hashtbl.replace per_layer w.layer
        ((try Hashtbl.find per_layer w.layer with Not_found -> 0) + 1);
      region_fill.(w.region) <- region_fill.(w.region) + 1)
    t.wires;
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "netlist: %d wires over %dx%d bank (region capacity %d)\n"
       (wire_count t) t.in_features t.out_features t.region_capacity);
  Array.iter
    (fun l ->
      Buffer.add_string buf
        (Printf.sprintf "  %s: %d wires\n" l
           (try Hashtbl.find per_layer l with Not_found -> 0)))
    layers;
  Buffer.add_string buf "  region fill: ";
  Array.iteri
    (fun c n -> Buffer.add_string buf (Printf.sprintf "%d:%d " c n))
    region_fill;
  Buffer.add_char buf '\n';
  Buffer.contents buf
