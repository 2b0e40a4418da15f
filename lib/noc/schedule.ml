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
      let ring = Array.of_list (List.sort compare group) in
      let k = Array.length ring in
      (* Step s: every chip forwards the shard it received s steps ago to
         its ring successor. *)
      List.init (k - 1) (fun _ ->
          List.init k (fun i ->
              { src = ring.(i); dst = ring.((i + 1) mod k); bytes = shard_bytes }))
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

let reduce ~root ~group ~bytes = canonical (Reduce { root; group; bytes })
let broadcast ~root ~group ~bytes = canonical (Broadcast { root; group; bytes })
let all_reduce ~group ~bytes = canonical (All_reduce { group; bytes })
let all_gather ~group ~shard_bytes = canonical (All_gather { group; shard_bytes })

let scatter ~root ~group ~shard_bytes =
  canonical (Scatter { root; group; shard_bytes })

let all_chip_all_reduce ~bytes = canonical (All_chip_all_reduce { bytes })

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

type violation =
  | Not_a_link of Topology.chip * Topology.chip
  | Tx_conflict of Topology.chip
  | Rx_overmerge of Topology.chip

let validate plan =
  let violations = ref [] in
  List.iter
    (fun step ->
      let tx = Hashtbl.create 16 and rx = Hashtbl.create 16 in
      List.iter
        (fun { src; dst; bytes = _ } ->
          if not (Topology.connected src dst) then
            violations := Not_a_link (src, dst) :: !violations;
          (* One TX port per link: two same-step sends from src to the same
             dst would serialize. *)
          if Hashtbl.mem tx (src, dst) then violations := Tx_conflict src :: !violations
          else Hashtbl.add tx (src, dst) ();
          let n = (try Hashtbl.find rx dst with Not_found -> 0) + 1 in
          Hashtbl.replace rx dst n;
          if n > Topology.degree dst then
            violations := Rx_overmerge dst :: !violations)
        step)
    plan;
  List.rev !violations

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

let endpoints plan =
  let seen = Hashtbl.create 16 in
  List.iter
    (List.iter
       (fun { src; dst; _ } ->
         Hashtbl.replace seen src ();
         Hashtbl.replace seen dst ()))
    plan;
  List.sort compare (Hashtbl.fold (fun c () acc -> c :: acc) seen [])

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

let run_symbolic ~producers ~mode plan =
  let chips = List.sort_uniq compare (endpoints plan @ producers) in
  (* chip -> origin -> (count, provenance: delivery indices that carried the
     origin here).  Producers start holding one copy of their own value. *)
  let state : (Topology.chip, (int * ISet.t) IMap.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let written = Hashtbl.create 16 in
  List.iter
    (fun c ->
      Hashtbl.replace state c (IMap.singleton c (1, ISet.empty));
      Hashtbl.replace written c ())
    producers;
  let get c = Option.value ~default:IMap.empty (Hashtbl.find_opt state c) in
  let index = ref (-1) in
  let deliveries = ref [] and unread = ref [] and races = ref [] in
  List.iteri
    (fun s step ->
      let m = mode s in
      (* Snapshot every sender before applying any delivery: transfers of one
         step read start-of-step state, matching {!run}. *)
      let snap =
        List.map
          (fun { src; dst; bytes } ->
            incr index;
            let d =
              { d_step = s; d_index = !index; d_src = src; d_dst = dst;
                d_bytes = bytes }
            in
            deliveries := d :: !deliveries;
            if not (Hashtbl.mem written src) then unread := d :: !unread;
            (d, get src))
          step
      in
      let tag i payload =
        IMap.map (fun (n, prov) -> (n, ISet.add i prov)) payload
      in
      let dsts = List.sort_uniq compare (List.map (fun (d, _) -> d.d_dst) snap) in
      List.iter
        (fun dst ->
          let incoming = List.filter (fun (d, _) -> d.d_dst = dst) snap in
          (match m with
          | Accumulate ->
            let merged =
              List.fold_left
                (fun acc (d, payload) ->
                  IMap.union
                    (fun _ (n1, p1) (n2, p2) -> Some (n1 + n2, ISet.union p1 p2))
                    acc
                    (tag d.d_index payload))
                (get dst) incoming
            in
            Hashtbl.replace state dst merged
          | Overwrite -> (
            match incoming with
            | [ (d, payload) ] ->
              Hashtbl.replace state dst (tag d.d_index payload)
            | _ ->
              races := (s, dst, List.length incoming) :: !races;
              (* The lowest sender wins, as in {!run}; the race is
                 already reported. *)
              let d, payload =
                List.fold_left
                  (fun ((a, _) as best) ((b, _) as cand) ->
                    if b.d_src < a.d_src then cand else best)
                  (List.hd incoming) (List.tl incoming)
              in
              Hashtbl.replace state dst (tag d.d_index payload))
          | Union ->
            (* Set semantics: an origin the chip already holds is kept, so a
               delivery's index lands only on origins it actually introduces
               (a delivery introducing nothing ends up in no live set). *)
            let merged =
              List.fold_left
                (fun acc (d, payload) ->
                  IMap.union (fun _ cur _ -> Some cur) acc (tag d.d_index payload))
                (get dst) incoming
            in
            Hashtbl.replace state dst merged);
          Hashtbl.replace written dst ())
        dsts)
    plan;
  let finals =
    List.map
      (fun c -> (c, List.map (fun (o, (n, _)) -> (o, n)) (IMap.bindings (get c))))
      chips
  in
  let live =
    List.map
      (fun c ->
        ( c,
          ISet.elements
            (IMap.fold (fun _ (_, p) acc -> ISet.union p acc) (get c) ISet.empty)
        ))
      chips
  in
  {
    finals;
    live;
    unwritten_reads = List.rev !unread;
    overwrite_races = List.rev !races;
    deliveries = List.rev !deliveries;
  }

(* --- Execution on values ---------------------------------------------------- *)

let run ?plan ?obs coll vals =
  (match vals with [] -> invalid_arg "Schedule.run: empty" | _ -> ());
  let plan = match plan with Some p -> p | None -> canonical coll in
  let mode = (semantics coll).mode in
  (* Transfers of one step start together at the step's offset into the
     plan's makespan; the telemetry timeline reuses the same link model as
     {!makespan}, so spans and the reported makespan agree. *)
  let step_start = ref 0.0 in
  let emit_step phase step =
    match obs with
    | None -> ()
    | Some o ->
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
      Hnlpu_obs.Metrics.set_stamped m ~stamp:!step_start
        "noc/makespan_s" !step_start
  in
  let held = Array.make Topology.chips false in
  let state = Array.make Topology.chips [||] in
  List.iter
    (fun (c, v) ->
      if not (Topology.valid c) then invalid_arg "Schedule.run: bad chip";
      held.(c) <- true;
      state.(c) <- Array.copy v)
    vals;
  let holds c = Topology.valid c && held.(c) in
  let winner = Array.make Topology.chips max_int in
  List.iteri
    (fun phase step ->
      List.iter
        (fun { src; dst; _ } ->
          if not (holds src && holds dst) then
            invalid_arg
              (Printf.sprintf
                 "Schedule.run: transfer %d -> %d in step %d leaves the group"
                 src dst phase))
        step;
      emit_step phase step;
      (* Every transfer of a step reads start-of-step state; deliveries
         then land in plan order. *)
      let sent =
        List.map (fun { src; dst; _ } -> (src, dst, Array.copy state.(src))) step
      in
      match mode phase with
      | Accumulate ->
        List.iter
          (fun (_, dst, v) -> Hnlpu_tensor.Vec.add_inplace state.(dst) v)
          sent
      | Overwrite ->
        (* Same-step writes to one chip resolve to the lowest sender, as in
           {!run_symbolic}. *)
        List.iter (fun (_, dst, _) -> winner.(dst) <- max_int) sent;
        List.iter (fun (src, dst, _) -> winner.(dst) <- min winner.(dst) src) sent;
        List.iter
          (fun (src, dst, v) -> if src = winner.(dst) then state.(dst) <- v)
          sent
      | Union ->
        invalid_arg "Schedule.run: an all-gather merges shards, not vectors")
    plan;
  List.map (fun (c, _) -> (c, state.(c))) vals

let run_all_reduce ?plan ?obs ~group vals =
  run ?plan ?obs (All_reduce { group; bytes = 0 }) vals
