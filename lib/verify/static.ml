open Hnlpu_noc
open Hnlpu_chip
open Hnlpu_model
open Hnlpu_system

(* --- NOC-DEADLOCK ---------------------------------------------------------- *)

(* Transfers within a step start together, but a chip that holds no value
   yet can only forward what a same-step delivery brings it (cut-through).
   Each such transfer waits on every same-step delivery into its source; a
   cycle in that wait-for graph can never make progress.  Chips already
   written by an earlier step (or producers) wait on nothing, which is why
   the canonical all-gather — everyone a producer — is clean. *)
let deadlock ~subject coll (plan : Schedule.t) =
  let { Schedule.producers; _ } = Schedule.semantics coll in
  let written = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace written c ()) producers;
  let cycles = ref [] in
  List.iteri
    (fun s step ->
      let transfers = Array.of_list step in
      let n = Array.length transfers in
      let incoming_of chip =
        List.filter_map
          (fun j ->
            if transfers.(j).Schedule.dst = chip then Some j else None)
          (List.init n Fun.id)
      in
      let waits_on =
        Array.map
          (fun { Schedule.src; _ } ->
            if Hashtbl.mem written src then [] else incoming_of src)
          transfers
      in
      (* DFS cycle detection; color 1 = on stack, 2 = done. *)
      let color = Array.make n 0 in
      let cycle = ref None in
      let rec visit stack i =
        if !cycle = None then
          if color.(i) = 1 then begin
            let rec take acc = function
              | [] -> acc
              | j :: rest -> if j = i then j :: acc else take (j :: acc) rest
            in
            cycle := Some (take [] stack)
          end
          else if color.(i) = 0 then begin
            color.(i) <- 1;
            List.iter (visit (i :: stack)) waits_on.(i);
            color.(i) <- 2
          end
      in
      for i = 0 to n - 1 do
        visit [] i
      done;
      (match !cycle with
      | None -> ()
      | Some c -> cycles := (s, List.map (fun i -> transfers.(i)) c) :: !cycles);
      List.iter
        (fun { Schedule.dst; _ } -> Hashtbl.replace written dst ())
        step)
    plan;
  match List.rev !cycles with
  | [] ->
    [
      Diagnostic.info ~rule:"NOC-DEADLOCK" ~subject
        "channel-dependency graph is acyclic across %d step(s): every \
         forwarding chain is grounded in a written chip"
        (List.length plan);
    ]
  | cycles ->
    List.map
      (fun (s, cyc) ->
        let path =
          String.concat " waits on "
            (List.map
               (fun { Schedule.src; dst; _ } ->
                 Printf.sprintf "%d->%d" src dst)
               (cyc @ [ List.hd cyc ]))
        in
        Diagnostic.error ~rule:"NOC-DEADLOCK" ~subject
          "step %d: circular same-step dependency — %s; no transfer in the \
           cycle can ever start"
          s path)
      cycles

(* --- NOC-DEFUSE ------------------------------------------------------------ *)

let multiset_to_string ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (o, n) ->
           if n = 1 then string_of_int o else Printf.sprintf "%d x%d" o n)
         ms)
  ^ "}"

(* got/want are sorted (origin, count) lists. *)
let multiset_diff ~got ~want =
  let count ms o = Option.value ~default:0 (List.assoc_opt o ms) in
  let origins = List.sort_uniq compare (List.map fst got @ List.map fst want) in
  let excess a b =
    List.filter_map
      (fun o ->
        let d = count a o - count b o in
        if d > 0 then Some (o, d) else None)
      origins
  in
  (excess want got, excess got want)

let defuse ~subject coll (plan : Schedule.t) =
  let { Schedule.producers; required; _ } = Schedule.semantics coll in
  (* Every required chip must end with one copy of each producer's value. *)
  let want = List.map (fun c -> (c, 1)) (List.sort_uniq compare producers) in
  let sym = Schedule.run_symbolic coll plan in
  let reads =
    List.map
      (fun d ->
        Diagnostic.error ~rule:"NOC-DEFUSE" ~subject
          "step %d: chip %d forwards to chip %d before anything is \
           written to it (read of a never-written buffer)"
          d.Schedule.d_step d.Schedule.d_src d.Schedule.d_dst)
      sym.Schedule.unwritten_reads
  in
  let races =
    List.map
      (fun (s, dst, writers) ->
        Diagnostic.error ~rule:"NOC-DEFUSE" ~subject
          "step %d: %d same-step writes race for chip %d's slot — \
           last-writer-wins order is undefined"
          s writers dst)
      sym.Schedule.overwrite_races
  in
  let finals =
    List.concat_map
      (fun chip ->
        let got =
          Option.value ~default:[] (List.assoc_opt chip sym.Schedule.finals)
        in
        if got = want then []
        else
          let missing, extra = multiset_diff ~got ~want in
          let part label = function
            | [] -> ""
            | ms -> Printf.sprintf "; %s %s" label (multiset_to_string ms)
          in
          [
            Diagnostic.error ~rule:"NOC-DEFUSE" ~subject
              "chip %d ends with contributions %s, expected %s%s%s" chip
              (multiset_to_string got) (multiset_to_string want)
              (part "missing" missing) (part "duplicated" extra);
          ])
      required
  in
  let live =
    List.sort_uniq compare
      (List.concat_map
         (fun chip ->
           Option.value ~default:[] (List.assoc_opt chip sym.Schedule.live))
         required)
  in
  let dead =
    List.filter
      (fun d -> not (List.mem d.Schedule.d_index live))
      sym.Schedule.deliveries
  in
  let dead_warnings =
    List.map
      (fun d ->
        Diagnostic.warning ~rule:"NOC-DEFUSE" ~subject
          "step %d: transfer chip %d -> chip %d (%d B) reaches no required \
           chip's final value — dead transfer"
          d.Schedule.d_step d.Schedule.d_src d.Schedule.d_dst
          d.Schedule.d_bytes)
      dead
  in
  match reads @ races @ finals @ dead_warnings with
  | [] ->
    [
      Diagnostic.info ~rule:"NOC-DEFUSE" ~subject
        "def-use clean: %d deliveries all live; every required chip ends \
         with exactly the declared contributions"
        (List.length sym.Schedule.deliveries);
    ]
  | ds -> ds

(* --- BUF-LIVE -------------------------------------------------------------- *)

let headroom_bytes (config : Config.t) ~max_context =
  let cap = Attention_buffer.capacity_bytes Attention_buffer.hnlpu in
  let per_pos = Attention_buffer.kv_bytes_per_position_per_chip config in
  let worst_positions = (max_context + Topology.rows - 1) / Topology.rows in
  let resident = min (per_pos * worst_positions) cap in
  cap - resident

let buffer_liveness ~subject ~(config : Config.t) ~max_context
    (plan : Schedule.t) =
  let headroom = headroom_bytes config ~max_context in
  (* Per-chip static occupancy interval: the chip's working payload (the
     largest value it ever holds or sends) is live across the whole plan;
     each step adds RX staging for incoming transfers and TX staging for
     outgoing ones.  Peak = working + worst step. *)
  let working = Hashtbl.create 16 in
  let bump tbl c by =
    Hashtbl.replace tbl c (by + Option.value ~default:0 (Hashtbl.find_opt tbl c))
  in
  List.iter
    (List.iter
       (fun { Schedule.src; dst; bytes } ->
         let keep tbl c =
           Hashtbl.replace tbl c
             (max bytes (Option.value ~default:0 (Hashtbl.find_opt tbl c)))
         in
         keep working src;
         keep working dst))
    plan;
  let peak_staging = Hashtbl.create 16 in
  List.iter
    (fun step ->
      let staging = Hashtbl.create 16 in
      List.iter
        (fun { Schedule.src; dst; bytes } ->
          bump staging src bytes;
          bump staging dst bytes)
        step;
      Hashtbl.iter
        (fun c b ->
          let cur = Option.value ~default:0 (Hashtbl.find_opt peak_staging c) in
          if b > cur then Hashtbl.replace peak_staging c b)
        staging)
    plan;
  let peak_chip, peak =
    Hashtbl.fold
      (fun c w ((_, best) as acc) ->
        let p = w + Option.value ~default:0 (Hashtbl.find_opt peak_staging c) in
        if p > best then (c, p) else acc)
      working (-1, 0)
  in
  let mb b = float_of_int b /. 1e6 in
  if peak_chip < 0 then
    [
      Diagnostic.info ~rule:"BUF-LIVE" ~subject
        "plan moves no payload; %.2f MB of post-KV headroom at context %d"
        (mb headroom) max_context;
    ]
  else if peak > headroom then
    [
      Diagnostic.error ~rule:"BUF-LIVE" ~subject
        "chip %d peaks at %.2f MB of live payload + NOC staging, but only \
         %.2f MB of attention buffer is left after worst-case KV at context \
         %d — guaranteed overflow"
        peak_chip (mb peak) (mb headroom) max_context;
    ]
  else if peak * 10 > headroom * 9 then
    [
      Diagnostic.warning ~rule:"BUF-LIVE" ~subject
        "chip %d peaks at %.2f MB — within 10%% of the %.2f MB headroom \
         left after worst-case KV at context %d"
        peak_chip (mb peak) (mb headroom) max_context;
    ]
  else
    [
      Diagnostic.info ~rule:"BUF-LIVE" ~subject
        "peak static occupancy %.3f MB (chip %d) against %.2f MB of \
         post-KV headroom at context %d"
        (mb peak) peak_chip (mb headroom) max_context;
    ]

(* --- DET-LINT -------------------------------------------------------------- *)

let determinism ~subject (e : Execution.t) =
  let seed =
    match e.Execution.workload_seed with
    | Execution.Fixed _ -> []
    | Execution.Wall_clock ->
      [
        Diagnostic.error ~rule:"DET-LINT" ~subject
          "workload RNG is seeded from the wall clock — replays diverge; \
           pin workload-seed to an integer";
      ]
  in
  let merge =
    match e.Execution.sink_merge with
    | Execution.Rate_order -> []
    | Execution.Completion_order ->
      [
        Diagnostic.error ~rule:"DET-LINT" ~subject
          "telemetry sinks merge in worker-completion order — sweep output \
           reorders run to run; merge per-rate sinks in rate order";
      ]
  in
  let export =
    match e.Execution.export_order with
    | Execution.Sorted -> []
    | Execution.Hash_order ->
      [
        Diagnostic.error ~rule:"DET-LINT" ~subject
          "exported artifacts iterate a hash table — byte layout depends on \
           insertion history; sort keys before export";
      ]
  in
  match seed @ merge @ export with
  | [] ->
    [
      Diagnostic.info ~rule:"DET-LINT" ~subject
        "deterministic execution config (%s); results are domain-width \
         independent, so an unpinned pool is safe"
        (Execution.describe e);
    ]
  | ds -> ds

(* --- Per-plan driver ------------------------------------------------------- *)

let check_plan ~subject ~config ~max_context coll plan =
  deadlock ~subject coll plan
  @ defuse ~subject coll plan
  @ buffer_liveness ~subject ~config ~max_context plan
