type entry = Paper.fit

let all () = Paper.fits

let to_table () =
  let t = Hnlpu_util.Table.create ~headers:[ "Constant"; "Value"; "Unit"; "Anchor" ] in
  List.iter
    (fun (e : entry) ->
      Hnlpu_util.Table.add_row t
        [ e.constant; Hnlpu_util.Units.si ~digits:3 e.value; e.unit_; e.anchor ])
    (all ());
  t

let count () = List.length (all ())
