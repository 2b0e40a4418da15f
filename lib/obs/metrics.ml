open Hnlpu_util

(* Single-float records are flat float records, so the per-event
   updates below are plain stores — no fresh float box per event.
   [incr]/[set]/[observe] are ALLOC-HOT hot paths (see [Lint_config]);
   everything that allocates (first registration, kind clashes) lives in
   separately named cold helpers. *)

type counter = { mutable total : float }

type gauge = { mutable value : float }

type series = Counter of counter | Gauge of gauge | Hist of Sketch.t

type t = { series : (string, series) Hashtbl.t }

let create () = { series = Hashtbl.create 32 }

let kind_label = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Hist _ -> "histogram"

let clash name s =
  invalid_arg (Printf.sprintf "Metrics: %S is already a %s" name (kind_label s))

(* Cold: first use of [name] or a kind clash. *)
let incr_slow t by name =
  match Hashtbl.find_opt t.series name with
  | Some (Counter c) -> c.total <- c.total +. by
  | Some s -> clash name s
  | None -> Hashtbl.add t.series name (Counter { total = by })

let incr t ?(by = 1.0) name =
  match Hashtbl.find t.series name with
  | Counter c -> c.total <- c.total +. by
  | _ -> incr_slow t by name
  | exception Not_found -> incr_slow t by name

(* Cold: first use of [name] or a kind clash. *)
let set_slow t name v =
  match Hashtbl.find_opt t.series name with
  | Some (Gauge g) -> g.value <- v
  | Some s -> clash name s
  | None -> Hashtbl.add t.series name (Gauge { value = v })

let set t name v =
  match Hashtbl.find t.series name with
  | Gauge g -> g.value <- v
  | _ -> set_slow t name v
  | exception Not_found -> set_slow t name v

let hist t name =
  match Hashtbl.find_opt t.series name with
  | Some (Hist s) -> s
  | Some s -> clash name s
  | None ->
    let s = Sketch.create () in
    Hashtbl.add t.series name (Hist s);
    s

(* Cold: first observation of [name] or a kind clash. *)
let observe_slow t name v = Sketch.observe (hist t name) v

let observe t name v =
  match Hashtbl.find t.series name with
  | Hist s -> Sketch.observe s v
  | _ -> observe_slow t name v
  | exception Not_found -> observe_slow t name v

let counter t name =
  match Hashtbl.find_opt t.series name with
  | Some (Counter c) -> Some c.total
  | _ -> None

let gauge t name =
  match Hashtbl.find_opt t.series name with
  | Some (Gauge g) -> Some g.value
  | _ -> None

type summary = {
  count : int;
  mean : float;
  min_v : float;
  max_v : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let summarize_hist s =
  {
    count = Sketch.count s;
    mean = Sketch.mean s;
    min_v = Sketch.min_v s;
    max_v = Sketch.max_v s;
    p50 = Sketch.quantile s 0.5;
    p95 = Sketch.quantile s 0.95;
    p99 = Sketch.quantile s 0.99;
  }

let histogram t name =
  match Hashtbl.find_opt t.series name with
  | Some (Hist h) -> Some (summarize_hist h)
  | _ -> None

let names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.series [] |> List.sort compare

let live_words t =
  (* Estimate of heap words retained by the registry: per-series payload
     plus the name string and a nominal hashtable-bucket overhead.  The
     point is the trend over a run, not byte accounting. *)
  List.fold_left
    (fun acc name ->
      let payload =
        match Hashtbl.find_opt t.series name with
        | None -> 0
        | Some (Counter _) -> 2
        | Some (Gauge _) -> 2
        | Some (Hist sk) -> 2 + Sketch.live_words sk
      in
      acc + payload + ((String.length name + 8) / 8) + 4)
    0 (names t)

let to_json t =
  let of_kind keep render =
    List.filter_map
      (fun name ->
        match Hashtbl.find_opt t.series name with
        | Some s when keep s -> Some (name, render s)
        | _ -> None)
      (names t)
  in
  let counters =
    of_kind
      (function Counter _ -> true | _ -> false)
      (function Counter c -> Json.number c.total | _ -> assert false)
  in
  let gauges =
    of_kind
      (function Gauge _ -> true | _ -> false)
      (function Gauge g -> Json.number g.value | _ -> assert false)
  in
  let hists =
    of_kind
      (function Hist _ -> true | _ -> false)
      (function
        | Hist h ->
          let s = summarize_hist h in
          Json.obj
            [
              ("count", Json.int s.count);
              ("mean", Json.number s.mean);
              ("min", Json.number s.min_v);
              ("max", Json.number s.max_v);
              ("p50", Json.number s.p50);
              ("p95", Json.number s.p95);
              ("p99", Json.number s.p99);
            ]
        | _ -> assert false)
  in
  Json.obj
    [
      ("counters", Json.obj counters);
      ("gauges", Json.obj gauges);
      ("histograms", Json.obj hists);
    ]
  ^ "\n"

let to_table t =
  let table =
    Table.create ~headers:[ "Metric"; "Kind"; "Value"; "p50"; "p95"; "p99" ]
  in
  let num v = Printf.sprintf "%.6g" v in
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.series name with
      | Some (Counter c) -> Table.add_row table [ name; "counter"; num c.total; ""; ""; "" ]
      | Some (Gauge g) -> Table.add_row table [ name; "gauge"; num g.value; ""; ""; "" ]
      | Some (Hist h) ->
        let s = summarize_hist h in
        Table.add_row table
          [
            name;
            Printf.sprintf "hist[%d]" s.count;
            num s.mean;
            num s.p50;
            num s.p95;
            num s.p99;
          ]
      | None -> ())
    (names t);
  table
