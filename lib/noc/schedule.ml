type transfer = { src : Topology.chip; dst : Topology.chip; bytes : int }

type step = transfer list

type t = step list

type collective =
  | Reduce of { root : Topology.chip; group : Topology.chip list; bytes : int }
  | Broadcast of { root : Topology.chip; group : Topology.chip list; bytes : int }
  | All_reduce of { group : Topology.chip list; bytes : int }
  | All_gather of { group : Topology.chip list; shard_bytes : int }
  | Scatter of { root : Topology.chip; group : Topology.chip list; shard_bytes : int }
  | All_chip_all_reduce of { bytes : int }

let members = function
  | Reduce { group; _ } | Broadcast { group; _ } | All_reduce { group; _ }
  | All_gather { group; _ } | Scatter { group; _ } ->
    group
  | All_chip_all_reduce _ -> Topology.all_chips

let peers root group = List.filter (( <> ) root) group

let malformed coll =
  let group = members coll in
  let root, bytes =
    match coll with
    | Reduce { root; bytes; _ } | Broadcast { root; bytes; _ } -> (Some root, bytes)
    | Scatter { root; shard_bytes; _ } -> (Some root, shard_bytes)
    | All_reduce { bytes; _ } | All_chip_all_reduce { bytes } -> (None, bytes)
    | All_gather { shard_bytes; _ } -> (None, shard_bytes)
  in
  (if group = [] then [ "the group is empty" ] else [])
  @ List.filter_map
      (fun c ->
        if Topology.valid c then None
        else Some (Printf.sprintf "chip %d is not on the fabric" c))
      group
  @ (if List.length (List.sort_uniq compare group) < List.length group then
       [ "a chip is listed twice in the group" ]
     else [])
  @ (match root with
    | Some r when not (List.mem r group) ->
      [ Printf.sprintf "root %d is not in the group" r ]
    | _ -> [])
  @ if bytes < 0 then [ Printf.sprintf "payload %d B is negative" bytes ] else []

let canonical coll =
  (match malformed coll with
  | [] -> ()
  | why :: _ -> invalid_arg ("Schedule.canonical: " ^ why));
  let rec plan = function
    | Reduce { root; group; bytes } ->
      [ List.map (fun src -> { src; dst = root; bytes }) (peers root group) ]
    | Broadcast { root; group; bytes } ->
      [ List.map (fun dst -> { src = root; dst; bytes }) (peers root group) ]
    | Scatter { root; group; shard_bytes } ->
      plan (Broadcast { root; group; bytes = shard_bytes })
    | All_reduce { group; bytes } ->
      let root = List.fold_left min max_int group in
      plan (Reduce { root; group; bytes }) @ plan (Broadcast { root; group; bytes })
    | All_gather { group; shard_bytes } ->
      (* One step: every member sends its shard to each peer. *)
      let group = List.sort compare group in
      [
        List.concat_map
          (fun src ->
            List.map (fun dst -> { src; dst; bytes = shard_bytes }) (peers src group))
          group;
      ]
    | All_chip_all_reduce { bytes } ->
      (* All four columns concurrently, then all four rows. *)
      let phase line which =
        List.concat_map
          (fun i -> List.nth (plan (All_reduce { group = line i; bytes })) which)
          [ 0; 1; 2; 3 ]
      in
      Topology.
        [ phase col_group 0; phase col_group 1; phase row_group 0; phase row_group 1 ]
  in
  plan coll

let all_reduce ~group ~bytes = canonical (All_reduce { group; bytes })

type merge_mode = Accumulate | Overwrite | Union

type semantics = {
  producers : Topology.chip list;
  mode : int -> merge_mode;
  required : Topology.chip list;
}

let semantics coll =
  match coll with
  | Reduce { root; group; _ } ->
    { producers = group; mode = (fun _ -> Accumulate); required = [ root ] }
  | Broadcast { root; group; _ } | Scatter { root; group; _ } ->
    { producers = [ root ]; mode = (fun _ -> Overwrite); required = peers root group }
  | All_reduce { group; _ } ->
    (* Reduce to the root, then broadcast back. *)
    {
      producers = group;
      mode = (fun s -> if s = 0 then Accumulate else Overwrite);
      required = group;
    }
  | All_gather { group; _ } ->
    { producers = group; mode = (fun _ -> Union); required = group }
  | All_chip_all_reduce _ ->
    (* Column all-reduce (steps 0-1), then row all-reduce (steps 2-3). *)
    {
      producers = Topology.all_chips;
      mode = (fun s -> if s = 0 || s = 2 then Accumulate else Overwrite);
      required = Topology.all_chips;
    }

let makespan ?(link = Link.cxl3) plan =
  List.fold_left
    (fun acc step ->
      acc
      +. List.fold_left
           (fun worst { bytes; _ } ->
             Float.max worst (Link.transfer_time_s link ~bytes))
           0.0 step)
    0.0 plan

let transfer_count plan = List.fold_left (fun a s -> a + List.length s) 0 plan

let total_bytes plan =
  List.fold_left
    (fun acc step ->
      List.fold_left (fun a { bytes; _ } -> a + bytes) acc step)
    0 plan

(* --- The step engine ------------------------------------------------------- *)

(* The one interpreter of a plan, over per-chip states of any type: [init]
   holds before step 0, and chips outside it hold [empty].  Before step [s]
   runs, [on_step s step] sees it.  Every transfer then reads its sender's
   start-of-step state through [read s index transfer] ([None]: the sender
   holds nothing yet), [index] counting transfers in plan order.  Then each
   receiving chip, in ascending order, merges its deliveries in plan order
   under the step's mode: [add] or [union] folds them into its state, and
   [Overwrite] keeps the lowest sender's payload, telling [on_race] the
   number of writers when several raced.  Returns every chip's final
   state. *)
let execute ~mode ~init ~empty ~on_step ~read ~add ~union ~on_race plan =
  let state = Hashtbl.create 16 in
  List.iter (fun (c, v) -> Hashtbl.replace state c v) init;
  let index = ref (-1) in
  List.iteri
    (fun s step ->
      on_step s step;
      let sent =
        List.map
          (fun t ->
            incr index;
            (t, read s !index t (Hashtbl.find_opt state t.src)))
          step
      in
      List.iter
        (fun dst ->
          let incoming = List.filter (fun (t, _) -> t.dst = dst) sent in
          let held = Option.value ~default:empty (Hashtbl.find_opt state dst) in
          let fold merge =
            List.fold_left (fun acc (_, p) -> merge acc p) held incoming
          in
          let merged =
            match mode s with
            | Accumulate -> fold add
            | Union -> fold union
            | Overwrite ->
              let writers = List.length incoming in
              if writers > 1 then on_race s dst writers;
              let by_sender (a, _) (b, _) = compare a.src b.src in
              snd (List.hd (List.stable_sort by_sender incoming))
          in
          Hashtbl.replace state dst merged)
        (List.sort_uniq compare (List.map (fun t -> t.dst) step)))
    plan;
  state

(* --- Symbolic execution ---------------------------------------------------- *)

module ISet = Set.Make (Int)
module IMap = Map.Make (Int)

type delivery = {
  d_step : int;
  d_index : int;
  d_src : Topology.chip;
  d_dst : Topology.chip;
  d_bytes : int;
}

type symbolic = {
  finals : (Topology.chip * (Topology.chip * int) list) list;
  live : (Topology.chip * int list) list;
  unwritten_reads : delivery list;
  overwrite_races : (int * Topology.chip * int) list;
  deliveries : delivery list;
}

let run_symbolic coll plan =
  let { producers; mode; _ } = semantics coll in
  (* A chip's state maps origin -> (count, provenance: the delivery indices
     that carried the origin here).  Producers start holding one copy of
     their own value. *)
  let deliveries = ref [] and unread = ref [] and races = ref [] in
  let read s i { src; dst; bytes } held =
    let d = { d_step = s; d_index = i; d_src = src; d_dst = dst; d_bytes = bytes } in
    deliveries := d :: !deliveries;
    match held with
    | None ->
      unread := d :: !unread;
      IMap.empty
    | Some payload -> IMap.map (fun (n, prov) -> (n, ISet.add i prov)) payload
  in
  let state =
    execute ~mode
      ~init:(List.map (fun c -> (c, IMap.singleton c (1, ISet.empty))) producers)
      ~empty:IMap.empty ~on_step:(fun _ _ -> ()) ~read
      ~add:
        (IMap.union (fun _ (n1, p1) (n2, p2) -> Some (n1 + n2, ISet.union p1 p2)))
        (* Set semantics: an origin the chip already holds is kept, so a
           delivery's index lands only on origins it actually introduces (a
           delivery introducing nothing ends up in no live set). *)
      ~union:(IMap.union (fun _ cur _ -> Some cur))
      ~on_race:(fun s dst writers -> races := (s, dst, writers) :: !races)
      plan
  in
  let get c = Option.value ~default:IMap.empty (Hashtbl.find_opt state c) in
  let deliveries = List.rev !deliveries in
  let chips =
    List.sort_uniq compare
      (producers @ List.concat_map (fun d -> [ d.d_src; d.d_dst ]) deliveries)
  in
  let final c = List.map (fun (o, (n, _)) -> (o, n)) (IMap.bindings (get c)) in
  let live c = IMap.fold (fun _ (_, p) acc -> ISet.union p acc) (get c) ISet.empty in
  {
    finals = List.map (fun c -> (c, final c)) chips;
    live = List.map (fun c -> (c, ISet.elements (live c))) chips;
    unwritten_reads = List.rev !unread;
    overwrite_races = List.rev !races;
    deliveries;
  }

(* --- Execution on values ---------------------------------------------------- *)

let run ?plan ?obs coll vals =
  (match vals with [] -> invalid_arg "Schedule.run: empty" | _ -> ());
  let plan = match plan with Some p -> p | None -> canonical coll in
  (* Transfers of one step start together at the step's offset into the
     plan's makespan; the telemetry timeline reuses the same link model as
     {!makespan}, so spans and the reported makespan agree. *)
  let step_start = ref 0.0 in
  let emit_step phase step o =
    let module Event = Hnlpu_obs.Event in
    let m = Hnlpu_obs.Sink.metrics o in
    let worst = ref 0.0 in
    List.iter
      (fun { src; dst; bytes } ->
        let d = Link.transfer_time_s Link.cxl3 ~bytes in
        worst := Float.max !worst d;
        Hnlpu_obs.Sink.span o ~cat:"transfer"
          ~args:[ ("bytes", Event.I bytes); ("step", Event.I phase);
                  ("dst", Event.I dst) ]
          ~track:
            (Event.track ~process:"noc"
               ~thread:(Printf.sprintf "chip%02d" src))
          ~name:(Printf.sprintf "->chip%02d" dst)
          ~start_s:!step_start ~dur_s:d;
        Hnlpu_obs.Metrics.incr m "noc/transfers";
        Hnlpu_obs.Metrics.incr m ~by:(float_of_int bytes) "noc/bytes_sent";
        Hnlpu_obs.Metrics.observe m "noc/transfer_s" d)
      step;
    step_start := !step_start +. !worst;
    Hnlpu_obs.Metrics.set m "noc/makespan_s" !step_start
  in
  List.iter
    (fun (c, _) ->
      if not (Topology.valid c) then invalid_arg "Schedule.run: bad chip")
    vals;
  let on_step phase step =
    List.iter
      (fun { src; dst; _ } ->
        if not (List.mem_assoc src vals && List.mem_assoc dst vals) then
          invalid_arg
            (Printf.sprintf
               "Schedule.run: transfer %d -> %d in step %d leaves the group"
               src dst phase))
      step;
    Option.iter (emit_step phase step) obs
  in
  (* Every vector in the state is the chip's own copy, so deliveries can
     accumulate in place. *)
  let state =
    execute ~mode:(semantics coll).mode
      ~init:(List.map (fun (c, v) -> (c, Array.copy v)) vals)
      ~empty:[||] ~on_step
      ~read:(fun _ _ _ v -> Array.copy (Option.get v))
      ~add:(fun acc v ->
        Hnlpu_tensor.Vec.add_inplace acc v;
        acc)
      ~union:(fun _ _ ->
        invalid_arg "Schedule.run: an all-gather merges shards, not vectors")
      ~on_race:(fun _ _ _ -> ())
      plan
  in
  List.map (fun (c, _) -> (c, Hashtbl.find state c)) vals

let run_all_reduce ?plan ~group vals =
  run ?plan (All_reduce { group; bytes = 0 }) vals
