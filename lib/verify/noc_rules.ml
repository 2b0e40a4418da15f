open Hnlpu_noc

let links ~subject (plan : Schedule.t) =
  List.concat
    (List.mapi
       (fun step transfers ->
         List.filter_map
           (fun { Schedule.src; dst; bytes = _ } ->
             if Topology.valid src && Topology.valid dst && Topology.connected src dst
             then None
             else
               Some
                 (Diagnostic.error ~rule:"NOC-LINK" ~subject
                    "step %d: chip %d -> chip %d is not a fabric link (row %s, \
                     col %s)" step src dst
                    (if Topology.valid src && Topology.valid dst
                       && Topology.row_of src = Topology.row_of dst
                     then "shared" else "distinct")
                    (if Topology.valid src && Topology.valid dst
                       && Topology.col_of src = Topology.col_of dst
                     then "shared" else "distinct")))
           transfers)
       plan)

let contention ~subject (plan : Schedule.t) =
  List.concat
    (List.mapi
       (fun step transfers ->
         let tx = Hashtbl.create 16 and rx = Hashtbl.create 16 in
         List.iter
           (fun { Schedule.src; dst; bytes = _ } ->
             Hashtbl.replace tx (src, dst)
               (1 + Option.value ~default:0 (Hashtbl.find_opt tx (src, dst)));
             Hashtbl.replace rx dst
               (1 + Option.value ~default:0 (Hashtbl.find_opt rx dst)))
           transfers;
         let tx_errors =
           Hashtbl.fold
             (fun (src, dst) n acc ->
               if n > 1 then
                 Diagnostic.error ~rule:"NOC-PORT" ~subject
                   "step %d: chip %d drives the link to chip %d with %d \
                    concurrent transfers (one TX stream per link)" step src dst n
                 :: acc
               else acc)
             tx []
         in
         let rx_errors =
           Hashtbl.fold
             (fun dst n acc ->
               if Topology.valid dst && n > Topology.degree dst then
                 Diagnostic.error ~rule:"NOC-PORT" ~subject
                   "step %d: chip %d merges %d incoming streams (degree %d)"
                   step dst n (Topology.degree dst)
                 :: acc
               else acc)
             rx []
         in
         List.sort compare tx_errors @ List.sort compare rx_errors)
       plan)

(* Byte accounting over the whole plan: how much each chip injects and
   takes delivery of, regardless of step structure. *)
let tally (plan : Schedule.t) =
  let sent = Hashtbl.create 16 and received = Hashtbl.create 16 in
  List.iter
    (fun transfers ->
      List.iter
        (fun { Schedule.src; dst; bytes } ->
          Hashtbl.replace sent src
            (bytes + Option.value ~default:0 (Hashtbl.find_opt sent src));
          Hashtbl.replace received dst
            (bytes + Option.value ~default:0 (Hashtbl.find_opt received dst)))
        transfers)
    plan;
  let of_tbl tbl c = Option.value ~default:0 (Hashtbl.find_opt tbl c) in
  (of_tbl sent, of_tbl received)

let stray_endpoints ~subject group (plan : Schedule.t) =
  let in_group c = List.mem c group in
  List.concat_map
    (fun transfers ->
      List.filter_map
        (fun { Schedule.src; dst; bytes = _ } ->
          if in_group src && in_group dst then None
          else
            Some
              (Diagnostic.error ~rule:"NOC-BYTES" ~subject
                 "transfer chip %d -> chip %d leaves the declared group" src dst))
        transfers)
    plan

let expect ~subject ~what ~chip ~got ~want =
  if got = want then []
  else
    [
      Diagnostic.error ~rule:"NOC-BYTES" ~subject
        "chip %d %s %d B, expected %d B" chip what got want;
    ]

let malformed ~subject coll (plan : Schedule.t) =
  List.map
    (fun why ->
      Diagnostic.error ~rule:"NOC-BYTES" ~subject
        "declared collective is malformed: %s" why)
    (Schedule.malformed coll)
  @ List.concat
      (List.mapi
         (fun step ->
           List.filter_map (fun { Schedule.src; dst; bytes } ->
               if bytes >= 0 then None
               else
                 Some
                   (Diagnostic.error ~rule:"NOC-BYTES" ~subject
                      "step %d: transfer chip %d -> chip %d carries a \
                       negative payload (%d B)"
                      step src dst bytes)))
         plan)

let conservation ~subject coll (plan : Schedule.t) =
  let sent, received = tally plan in
  let want_sent, want_received = tally (Schedule.canonical coll) in
  let group = Schedule.members coll in
  stray_endpoints ~subject group plan
  @ List.concat_map
      (fun c ->
        expect ~subject ~what:"sends" ~chip:c ~got:(sent c) ~want:(want_sent c)
        @ expect ~subject ~what:"receives" ~chip:c ~got:(received c)
            ~want:(want_received c))
      (List.sort_uniq compare group)

(* Execution cross-check: byte conservation is a whole-plan tally, so a plan
   can move the right amounts yet order them so receivers merge the wrong
   operands.  Running the plan on random vectors and diffing against the
   mathematical sum catches exactly that class. *)
let execution ~subject coll (plan : Schedule.t) =
  let { Schedule.producers; mode; required } = Schedule.semantics coll in
  if mode 0 <> Schedule.Accumulate then []
  else
    let rng = Hnlpu_util.Rng.create 7 in
    let vals =
      List.map (fun c -> (c, Hnlpu_tensor.Vec.gaussian rng 8)) producers
    in
    let expected = Collective.sum vals in
    match Schedule.run ~plan coll vals with
    | exception Invalid_argument msg ->
      [
        Diagnostic.error ~rule:"NOC-EXEC" ~subject
          "plan is not executable as declared: %s" msg;
      ]
    | results -> (
      let off =
        List.filter_map
          (fun c ->
            let diff = Hnlpu_tensor.Vec.max_abs_diff (List.assoc c results) expected in
            if diff > 1e-9 then Some (c, diff) else None)
          required
      in
      match off with
      | [] ->
        [
          Diagnostic.info ~rule:"NOC-EXEC" ~subject
            "executed on random vectors: every required chip ends with the \
             mathematical sum";
        ]
      | _ ->
        List.map
          (fun (c, diff) ->
            Diagnostic.error ~rule:"NOC-EXEC" ~subject
              "executing the plan leaves chip %d off the mathematical sum \
               by %g"
              c diff)
          off)

let makespan_budget = 1.1

let makespan ?link ~subject coll (plan : Schedule.t) =
  let actual = Schedule.makespan ?link plan in
  let expected = Schedule.makespan ?link (Schedule.canonical coll) in
  if expected > 0.0 && actual > makespan_budget *. expected then
    [
      Diagnostic.warning ~rule:"NOC-MAKESPAN" ~subject
        "plan makespan %.3g us is %.0f%% of the canonical schedule's \
         %.3g us (budget %.0f%%)"
        (actual *. 1e6)
        (100.0 *. actual /. expected)
        (expected *. 1e6)
        (100.0 *. makespan_budget);
    ]
  else
    [
      Diagnostic.info ~rule:"NOC-MAKESPAN" ~subject
        "makespan %.3g us within %.0f%% of the canonical schedule"
        (actual *. 1e6)
        (100.0 *. makespan_budget);
    ]

let check ?(dynamic = true) ~subject coll plan =
  let fabric = links ~subject plan @ contention ~subject plan in
  match malformed ~subject coll plan with
  | _ :: _ as bad -> bad @ fabric
  | [] ->
    (match fabric @ conservation ~subject coll plan with
    | [] ->
      [
        Diagnostic.info ~rule:"NOC-BYTES" ~subject
          "%d step(s), %d transfer(s), %d B moved — links, ports and byte \
           conservation clean"
          (List.length plan)
          (Schedule.transfer_count plan)
          (Schedule.total_bytes plan);
      ]
    | static -> static)
    @ (if dynamic then execution ~subject coll plan else [])
    @ makespan ~subject coll plan
