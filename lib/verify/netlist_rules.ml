open Hnlpu_litho

let wire_name (w : Hn_compiler.wire) = Printf.sprintf "n%d.i%d" w.neuron w.input

let wires_name ws = String.concat ", " (List.map wire_name ws)

let congestion ?tracks_per_layer ~subject (n : Hn_compiler.netlist) =
  let limit =
    match tracks_per_layer with
    | Some l -> l
    | None -> Hn_compiler.max_tracks_per_layer n
  in
  (* Congestion is track demand: how many distinct tracks a layer needs.
     (Two wires on one track are a short — ME-TRACK's business, not ours.)
     Wires on a layer outside the window count nowhere. *)
  let layers = Hn_compiler.layers in
  let tracks = Array.make (Array.length layers) [] in
  List.iter
    (fun (w : Hn_compiler.wire) ->
      Array.iteri
        (fun i layer -> if String.equal layer w.layer then tracks.(i) <- w.track :: tracks.(i))
        layers)
    n.Hn_compiler.wires;
  let count = Array.map (fun ts -> List.length (List.sort_uniq Int.compare ts)) tracks in
  let top = Array.map (List.fold_left Int.max (-1)) tracks in
  let histogram =
    String.concat "  "
      (Array.to_list
         (Array.mapi
            (fun i layer ->
              Printf.sprintf "%s:%d (%.0f%%)" layer count.(i)
                (100.0 *. float_of_int count.(i) /. float_of_int (max 1 limit)))
            layers))
  in
  let errors =
    List.filter_map
      (fun i ->
        if count.(i) > limit then
          Some
            (Diagnostic.error ~rule:"ME-CONGEST" ~subject
               "layer %s congested: %d tracks demanded of the %d-track window \
                (max track %d)"
               layers.(i) count.(i) limit top.(i))
        else None)
      (List.init (Array.length layers) Fun.id)
  in
  errors
  @ [
      Diagnostic.info ~rule:"ME-CONGEST" ~subject
        "track utilization of the %d-track window: %s" limit histogram;
    ]

let drc ~subject n =
  List.map
    (function
      | Hn_compiler.Track_conflict (layer, track, ws) ->
        Diagnostic.error ~rule:"ME-TRACK" ~subject
          "%d wires short on %s track %d: %s" (List.length ws) layer track
          (wires_name ws)
      | Hn_compiler.Port_overflow (neuron, region, ws) ->
        Diagnostic.error ~rule:"ME-PORT" ~subject
          "neuron %d region %d: %d wires exceed the %d-port capacity (%s)"
          neuron region (List.length ws) n.Hn_compiler.region_capacity
          (wires_name ws)
      | Hn_compiler.Out_of_window w ->
        Diagnostic.error ~rule:"ME-WINDOW" ~subject
          "wire %s outside the routing window: layer %s, track %d" (wire_name w)
          w.Hn_compiler.layer w.Hn_compiler.track)
    (Hn_compiler.drc n)

let lvs ~subject (n : Hn_compiler.netlist) (g : Hnlpu_neuron.Gemv.t) =
  if
    n.Hn_compiler.in_features <> g.Hnlpu_neuron.Gemv.in_features
    || n.Hn_compiler.out_features <> g.Hnlpu_neuron.Gemv.out_features
  then
    [
      Diagnostic.error ~rule:"ME-LVS" ~subject
        "shape mismatch: netlist %dx%d vs schematic %dx%d"
        n.Hn_compiler.in_features n.Hn_compiler.out_features
        g.Hnlpu_neuron.Gemv.in_features g.Hnlpu_neuron.Gemv.out_features;
    ]
  else
    match Hn_compiler.extract_weights n with
    | exception Failure msg ->
      [
        Diagnostic.error ~rule:"ME-LVS" ~subject
          "netlist is not extractable: %s" msg;
      ]
    | extracted ->
      let mismatches = ref [] in
      Array.iteri
        (fun o row ->
          Array.iteri
            (fun i w ->
              if not (Hnlpu_fp4.Fp4.equal (Hnlpu_neuron.Gemv.code g o i) w) then
                mismatches := (o, i) :: !mismatches)
            row)
        extracted;
      (match List.rev !mismatches with
      | [] ->
        [
          Diagnostic.info ~rule:"ME-LVS" ~subject
            "netlist reconstructs the schematic (%d wires)"
            (Hn_compiler.wire_count n);
        ]
      | ms ->
        let sample =
          String.concat ", "
            (List.map
               (fun (o, i) -> Printf.sprintf "n%d.i%d" o i)
               (List.filteri (fun k _ -> k < 3) ms))
        in
        [
          Diagnostic.error ~rule:"ME-LVS" ~subject
            "%d weight(s) differ between netlist and schematic (%s%s)"
            (List.length ms) sample
            (if List.length ms > 3 then ", ..." else "");
        ])

let mask_uniformity chips =
  match chips with
  | [] | [ _ ] -> []
  | (ref_subject, ref_n) :: rest ->
    let shape (n : Hn_compiler.netlist) =
      (n.Hn_compiler.in_features, n.Hn_compiler.out_features)
    in
    let prefab_diffs =
      List.concat_map
        (fun (subject, (n : Hn_compiler.netlist)) ->
          let d field got expected =
            Diagnostic.error ~rule:"ME-MASK" ~subject
              "%s differs from %s: %s vs %s — the prefab below M8 is one \
               shared mask set" field ref_subject got expected
          in
          let shp (a, b) = Printf.sprintf "%dx%d" a b in
          (if shape n <> shape ref_n then
             [ d "bank shape" (shp (shape n)) (shp (shape ref_n)) ]
           else [])
          @ (if n.Hn_compiler.region_capacity <> ref_n.Hn_compiler.region_capacity
             then
               [
                 d "region port capacity"
                   (string_of_int n.Hn_compiler.region_capacity)
                   (string_of_int ref_n.Hn_compiler.region_capacity);
               ]
             else [])
          @
          if Hn_compiler.wire_count n <> Hn_compiler.wire_count ref_n then
            [
              d "wire count"
                (string_of_int (Hn_compiler.wire_count n))
                (string_of_int (Hn_compiler.wire_count ref_n));
            ]
          else [])
        rest
    in
    let stray_wires =
      List.concat_map
        (fun (subject, (n : Hn_compiler.netlist)) ->
          List.filter_map
            (fun (w : Hn_compiler.wire) ->
              if Array.exists (( = ) w.Hn_compiler.layer) Hn_compiler.layers then
                None
              else
                Some
                  (Diagnostic.error ~rule:"ME-MASK" ~subject
                     "wire %s routed on shared-mask layer %s — only M8-M11 \
                      content may differ across chips" (wire_name w)
                     w.Hn_compiler.layer))
            n.Hn_compiler.wires)
        chips
    in
    let diffs = prefab_diffs @ stray_wires in
    if diffs = [] then
      [
        Diagnostic.info ~rule:"ME-MASK" ~subject:"design"
          "%d netlists share the prefab: only M8-M11 content differs"
          (List.length chips);
      ]
    else diffs

let check_chip ~subject n g =
  congestion ~subject n
  @ drc ~subject n
  @ lvs ~subject n g
