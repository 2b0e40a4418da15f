type transfer = { src : Topology.chip; dst : Topology.chip; bytes : int }

type step = transfer list

type t = step list

let check_group group =
  match group with
  | [] -> invalid_arg "Schedule: empty group"
  | _ ->
    List.iter
      (fun c -> if not (Topology.valid c) then invalid_arg "Schedule: bad chip")
      group

let peers root group = List.filter (fun c -> c <> root) group

let reduce ~root ~group ~bytes =
  check_group group;
  if not (List.mem root group) then invalid_arg "Schedule.reduce: root not in group";
  [ List.map (fun src -> { src; dst = root; bytes }) (peers root group) ]

let broadcast ~root ~group ~bytes =
  check_group group;
  if not (List.mem root group) then invalid_arg "Schedule.broadcast: root not in group";
  [ List.map (fun dst -> { src = root; dst; bytes }) (peers root group) ]

let all_reduce ~group ~bytes =
  check_group group;
  let root = List.fold_left min max_int group in
  reduce ~root ~group ~bytes @ broadcast ~root ~group ~bytes

let all_gather ~group ~shard_bytes =
  check_group group;
  let ring = Array.of_list (List.sort compare group) in
  let k = Array.length ring in
  (* Step s: every chip forwards the shard it received s steps ago to its
     ring successor. *)
  List.init (k - 1) (fun _ ->
      List.init k (fun i ->
          { src = ring.(i); dst = ring.((i + 1) mod k); bytes = shard_bytes }))

let scatter ~root ~group ~shard_bytes =
  check_group group;
  if not (List.mem root group) then invalid_arg "Schedule.scatter: root not in group";
  [ List.map (fun dst -> { src = root; dst; bytes = shard_bytes }) (peers root group) ]

let all_chip_all_reduce ~bytes =
  let col_phase which =
    List.concat_map
      (fun col -> List.nth (all_reduce ~group:(Topology.col_group col) ~bytes) which)
      [ 0; 1; 2; 3 ]
  in
  let row_phase which =
    List.concat_map
      (fun row -> List.nth (all_reduce ~group:(Topology.row_group row) ~bytes) which)
      [ 0; 1; 2; 3 ]
  in
  [ col_phase 0; col_phase 1; row_phase 0; row_phase 1 ]

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

type merge_mode = Accumulate | Overwrite | Union

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
         step read start-of-step state, matching {!run_all_reduce}. *)
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
              (* run_all_reduce applies same-step overwrites in hash-table
                 order — last writer wins nondeterministically.  Pick the
                 lowest sender so the analysis itself stays deterministic;
                 the race is already reported. *)
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

let run_all_reduce ?plan ?obs ?(link = Link.cxl3) ~group vals =
  (match vals with
  | [] -> invalid_arg "Schedule.run_all_reduce: empty"
  | _ -> ());
  let plan =
    match plan with Some p -> p | None -> all_reduce ~group ~bytes:0
  in
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
          let d = Link.transfer_time_s link ~bytes in
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
  let state = Hashtbl.create 16 in
  List.iter (fun (c, v) -> Hashtbl.replace state c (Array.copy v)) vals;
  List.iteri
    (fun phase step ->
      List.iter
        (fun { src; dst; _ } ->
          if not (Hashtbl.mem state src && Hashtbl.mem state dst) then
            invalid_arg
              (Printf.sprintf
                 "Schedule.run_all_reduce: transfer %d -> %d in step %d leaves \
                  the group"
                 src dst phase))
        step;
      emit_step phase step;
      (* Phase 0 is the reduce (receivers accumulate); phase 1 the
         broadcast (receivers overwrite). *)
      let incoming = Hashtbl.create 16 in
      List.iter
        (fun { src; dst; _ } ->
          Hashtbl.add incoming dst (Array.copy (Hashtbl.find state src)))
        step;
      Hashtbl.iter
        (fun dst v ->
          match phase with
          | 0 ->
            let cur = Hashtbl.find state dst in
            Array.iteri (fun i x -> cur.(i) <- cur.(i) +. x) v
          | _ -> Hashtbl.replace state dst v)
        incoming)
    plan;
  List.map (fun (c, _) -> (c, Hashtbl.find state c)) vals
