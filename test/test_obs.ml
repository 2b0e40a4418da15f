(* Tests for Hnlpu_obs — the telemetry subsystem — and its hooks across
   the serving simulators.

   The Chrome-trace and metrics exports are validated by an in-tree
   strict JSON parser (RFC 8259 grammar, no extensions), the same-seed
   export is pinned byte-identical, QCheck properties assert span
   well-formedness and request-span nesting over random workloads, and
   the no-sink path is checked bit-identical to the uninstrumented
   scheduler. *)

open Hnlpu_obs

let config = Hnlpu.Config.gpt_oss_120b

(* --- A strict JSON parser (RFC 8259, nothing more) ------------------------ *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json input =
  let n = String.length input in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match input.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> incr pos
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub input !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for i = !pos to !pos + 3 do
      let d =
        match input.[i] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      v := (!v * 16) + d
    done;
    pos := !pos + 4;
    !v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match input.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        (match peek () with
        | Some (('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') as c) ->
          Buffer.add_char buf
            (match c with
            | 'b' -> '\b'
            | 'f' -> '\012'
            | 'n' -> '\n'
            | 'r' -> '\r'
            | 't' -> '\t'
            | c -> c);
          incr pos
        | Some 'u' ->
          incr pos;
          let cp = hex4 () in
          Buffer.add_char buf (if cp < 0x80 then Char.chr cp else '?')
        | _ -> fail "bad escape");
        go ()
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c ->
        Buffer.add_char buf c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let digits () =
    let start = !pos in
    while !pos < n && input.[!pos] >= '0' && input.[!pos] <= '9' do
      incr pos
    done;
    if !pos = start then fail "expected digits"
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    (match peek () with
    | Some '0' -> incr pos
    | Some ('1' .. '9') -> digits ()
    | _ -> fail "bad number");
    if peek () = Some '.' then begin
      incr pos;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      incr pos;
      (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
      digits ()
    | _ -> ());
    Num (float_of_string (String.sub input start (!pos - start)))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            members ((k, v) :: acc)
          | Some '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            items (v :: acc)
          | Some ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | _ -> fail "unexpected input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function
  | Obj kvs -> (
    match List.assoc_opt key kvs with
    | Some v -> v
    | None -> Alcotest.failf "missing key %S" key)
  | _ -> Alcotest.failf "not an object (looking for %S)" key

let as_arr = function Arr xs -> xs | _ -> Alcotest.fail "not an array"

let as_num = function Num x -> x | _ -> Alcotest.fail "not a number"

let as_str = function Str s -> s | _ -> Alcotest.fail "not a string"

let test_parser_is_strict () =
  let rejects s =
    match parse_json s with exception Bad_json _ -> true | _ -> false
  in
  Alcotest.(check bool) "trailing comma" true (rejects "[1,2,]");
  Alcotest.(check bool) "NaN literal" true (rejects "NaN");
  Alcotest.(check bool) "bare infinity" true (rejects "[Infinity]");
  Alcotest.(check bool) "leading zeros" true (rejects "01");
  Alcotest.(check bool) "single quotes" true (rejects "{'a': 1}");
  Alcotest.(check bool) "trailing garbage" true (rejects "{} x");
  Alcotest.(check bool) "plain object" false (rejects "{\"a\": [1, -2.5e3, null]}")

(* --- Json combinators ------------------------------------------------------ *)

let test_json_combinators () =
  Alcotest.(check string) "nan is null" "null" (Json.number nan);
  Alcotest.(check string) "inf is null" "null" (Json.number infinity);
  Alcotest.(check string) "integral float" "3" (Json.number 3.0);
  Alcotest.(check string) "negative zero-ish" "-2" (Json.number (-2.0));
  (match parse_json (Json.number 1.5e-7) with
  | Num x -> Alcotest.(check (float 1e-20)) "tiny float round-trips" 1.5e-7 x
  | _ -> Alcotest.fail "not a number");
  match parse_json (Json.string "a\"b\\c\nd\ttab\x01") with
  | Str s -> Alcotest.(check string) "escapes round-trip" "a\"b\\c\nd\ttab\x01" s
  | _ -> Alcotest.fail "not a string"

(* --- Ring ------------------------------------------------------------------ *)

let test_ring () =
  Alcotest.(check bool) "capacity 0 raises" true
    (match Ring.create ~capacity:0 with
    | exception Invalid_argument _ -> true
    | (_ : int Ring.t) -> false);
  let r = Ring.create ~capacity:3 in
  Alcotest.(check int) "empty" 0 (Ring.length r);
  List.iter (Ring.push r) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "in order" [ 1; 2; 3 ] (Ring.to_list r);
  List.iter (Ring.push r) [ 4; 5 ];
  Alcotest.(check (list int)) "oldest evicted" [ 3; 4; 5 ] (Ring.to_list r);
  Alcotest.(check int) "length capped" 3 (Ring.length r);
  Alcotest.(check int) "pushed total" 5 (Ring.pushed r);
  Alcotest.(check int) "dropped" 2 (Ring.dropped r)

(* --- Metrics ---------------------------------------------------------------- *)

let test_metrics_basic () =
  let m = Metrics.create () in
  Metrics.incr m "a/count";
  Metrics.incr m ~by:4.0 "a/count";
  Metrics.set m "a/gauge" 2.5;
  Metrics.set m "a/gauge" 7.0;
  List.iter (Metrics.observe m "a/hist") [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check (option (float 0.0))) "counter" (Some 5.0)
    (Metrics.counter m "a/count");
  Alcotest.(check (option (float 0.0))) "gauge last-write-wins" (Some 7.0)
    (Metrics.gauge m "a/gauge");
  (match Metrics.histogram m "a/hist" with
  | None -> Alcotest.fail "no histogram"
  | Some s ->
    Alcotest.(check int) "count" 4 s.Metrics.count;
    Alcotest.(check (float 1e-9)) "mean" 2.5 s.Metrics.mean;
    Alcotest.(check (float 1e-9)) "min" 1.0 s.Metrics.min_v;
    Alcotest.(check (float 1e-9)) "max" 4.0 s.Metrics.max_v);
  Alcotest.(check (list string)) "names sorted"
    [ "a/count"; "a/gauge"; "a/hist" ]
    (Metrics.names m)

let test_metrics_kind_conflict () =
  let m = Metrics.create () in
  Metrics.incr m "x";
  Alcotest.(check bool) "set on a counter raises" true
    (match Metrics.set m "x" 1.0 with
    | exception Invalid_argument _ -> true
    | () -> false);
  Alcotest.(check bool) "observe on a counter raises" true
    (match Metrics.observe m "x" 1.0 with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_metrics_json_strict () =
  let m = Metrics.create () in
  Metrics.incr m ~by:3.0 "noc/transfers";
  Metrics.set m "weird/nan_gauge" nan;
  Metrics.observe m "lat/s" 0.25;
  let j = parse_json (Metrics.to_json m) in
  Alcotest.(check (float 0.0)) "counter exported" 3.0
    (as_num (member "noc/transfers" (member "counters" j)));
  Alcotest.(check bool) "nan gauge exports as null" true
    (member "weird/nan_gauge" (member "gauges" j) = Null);
  Alcotest.(check int) "histogram count" 1
    (int_of_float (as_num (member "count" (member "lat/s" (member "histograms" j)))))

(* --- Sink ------------------------------------------------------------------- *)

let track = Event.track ~process:"test" ~thread:"t0"

let test_sink_rejects_bad_spans () =
  let o = Sink.create () in
  let raises dur =
    match Sink.span o ~track ~name:"s" ~start_s:0.0 ~dur_s:dur with
    | exception Invalid_argument _ -> true
    | () -> false
  in
  Alcotest.(check bool) "negative duration" true (raises (-1.0));
  Alcotest.(check bool) "nan duration" true (raises nan);
  Alcotest.(check bool) "infinite duration" true (raises infinity);
  Alcotest.(check bool) "zero duration is fine" false (raises 0.0)

let test_sink_capacity () =
  let o = Sink.create ~capacity:4 () in
  for i = 1 to 10 do
    Sink.instant o ~track ~name:"tick" ~ts_s:(float_of_int i)
  done;
  Alcotest.(check int) "recorded all" 10 (Sink.recorded o);
  Alcotest.(check int) "dropped overflow" 6 (Sink.dropped o);
  Alcotest.(check int) "retained tail" 4 (List.length (Sink.events o));
  Alcotest.(check (float 0.0)) "oldest retained is #7" 7.0
    (Event.ts_s (List.hd (Sink.events o)))

(* --- Chrome-trace export ----------------------------------------------------- *)

let sample_events =
  let a = Event.track ~process:"p1" ~thread:"alpha" in
  let b = Event.track ~process:"p2" ~thread:"beta" in
  [
    Event.Span
      {
        track = a;
        name = "work";
        cat = "cat1";
        ts_s = 1.5;
        dur_s = 0.25;
        args = [ ("k", Event.S "v"); ("n", Event.I 3); ("x", Event.F 0.5) ];
      };
    Event.Instant { track = b; name = "mark"; cat = ""; ts_s = 2.0; args = [] };
    Event.Counter { track = a; name = "depth"; ts_s = 2.5; value = 4.0 };
  ]

let test_chrome_trace_export () =
  let j = parse_json (Chrome_trace.to_json sample_events) in
  let evs = as_arr (member "traceEvents" j) in
  let phase e = as_str (member "ph" e) in
  let of_phase p = List.filter (fun e -> phase e = p) evs in
  Alcotest.(check int) "one complete span" 1 (List.length (of_phase "X"));
  Alcotest.(check int) "one instant" 1 (List.length (of_phase "i"));
  Alcotest.(check int) "one counter sample" 1 (List.length (of_phase "C"));
  Alcotest.(check int) "2 process + 2 thread metadata" 4
    (List.length (of_phase "M"));
  let span = List.hd (of_phase "X") in
  Alcotest.(check (float 1e-9)) "ts in microseconds" 1.5e6
    (as_num (member "ts" span));
  Alcotest.(check (float 1e-9)) "dur in microseconds" 0.25e6
    (as_num (member "dur" span));
  Alcotest.(check string) "cat preserved" "cat1" (as_str (member "cat" span));
  Alcotest.(check string) "string arg" "v"
    (as_str (member "k" (member "args" span)));
  let counter = List.hd (of_phase "C") in
  Alcotest.(check (float 0.0)) "counter value" 4.0
    (as_num (member "value" (member "args" counter)));
  (* pids are assigned in first-appearance order, so p1 < p2. *)
  let pid_of_proc name =
    List.filter_map
      (fun e ->
        if phase e = "M" && as_str (member "name" e) = "process_name"
           && as_str (member "name" (member "args" e)) = name
        then Some (int_of_float (as_num (member "pid" e)))
        else None)
      evs
    |> List.hd
  in
  Alcotest.(check bool) "first-appearance pid order" true
    (pid_of_proc "p1" < pid_of_proc "p2")

let test_jsonl_export () =
  let lines =
    String.split_on_char '\n' (String.trim (Chrome_trace.to_jsonl sample_events))
  in
  Alcotest.(check int) "one line per event, no metadata" 3 (List.length lines);
  List.iter
    (fun line ->
      let j = parse_json line in
      ignore (as_str (member "process" j));
      ignore (as_str (member "thread" j)))
    lines

(* --- Scheduler instrumentation ---------------------------------------------- *)

let sched_run ?obs seed =
  let reqs =
    Thelp.chat_requests ~seed ~n:40 ~rate_per_s:3000.0 ~mean_prefill:32
      ~mean_decode:16
  in
  Hnlpu.Scheduler.simulate ?obs config reqs

let test_no_sink_bit_identical () =
  let plain = sched_run 11 in
  let obs = Sink.create () in
  let instrumented = sched_run ~obs 11 in
  Alcotest.(check bool) "results identical with and without a sink" true
    (plain = instrumented);
  Alcotest.(check bool) "the sink actually recorded" true (Sink.recorded obs > 0)

let test_same_seed_export_identical () =
  let export seed =
    let obs = Sink.create () in
    ignore (sched_run ~obs seed);
    (Chrome_trace.to_json (Sink.events obs), Metrics.to_json (Sink.metrics obs))
  in
  let t1, m1 = export 23 in
  let t2, m2 = export 23 in
  Alcotest.(check string) "trace JSON byte-identical" t1 t2;
  Alcotest.(check string) "metrics JSON byte-identical" m1 m2

let spans_of evs =
  List.filter_map
    (function
      | Event.Span { track; name; ts_s; dur_s; _ } ->
        Some (track, name, ts_s, dur_s)
      | _ -> None)
    evs

let test_scheduler_spans () =
  let obs = Sink.create () in
  let r = sched_run ~obs 3 in
  let spans = spans_of (Sink.events obs) in
  let parents =
    List.filter (fun ((_, name, _, _) : Event.track * _ * _ * _) -> name = "request") spans
  in
  Alcotest.(check int) "one request span per completed request"
    (List.length r.Hnlpu.Scheduler.completed_requests)
    (List.length parents);
  (* TTFT histogram feeds the metrics registry. *)
  match Metrics.histogram (Sink.metrics obs) "scheduler/ttft_s" with
  | None -> Alcotest.fail "no TTFT histogram"
  | Some s ->
    Alcotest.(check int) "TTFT sample per request"
      (List.length r.Hnlpu.Scheduler.completed_requests)
      s.Metrics.count

(* QCheck: over random workload seeds, every span is well-formed and every
   per-request child span nests inside its track's "request" parent. *)
let prop_spans_wellformed =
  QCheck.Test.make ~name:"scheduler spans are well-formed and nested" ~count:10
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let obs = Sink.create () in
      ignore (sched_run ~obs seed);
      let spans = spans_of (Sink.events obs) in
      List.for_all (fun (_, _, ts, dur) -> dur >= 0.0 && Float.is_finite ts) spans
      && List.for_all
           (fun ((tr : Event.track), name, ts, dur) ->
             name = "request"
             || tr.Event.process <> "scheduler"
             || not (String.length tr.Event.thread >= 3
                     && String.sub tr.Event.thread 0 3 = "req")
             ||
             match
               List.find_opt
                 (fun (tr', name', _, _) -> tr' = tr && name' = "request")
                 spans
             with
             | None -> false
             | Some (_, _, pts, pdur) ->
               ts >= pts -. 1e-12 && ts +. dur <= pts +. pdur +. 1e-12)
           spans)

(* --- Pipeline-trace instrumentation ------------------------------------------ *)

let test_pipeline_trace_obs () =
  let obs = Sink.create () in
  let t = Hnlpu.Trace.run ~tokens:40 ~obs ~obs_tokens:8 config in
  let spans =
    List.filter
      (fun ((tr : Event.track), _, _, _) -> tr.Event.process = "pipeline")
      (spans_of (Sink.events obs))
  in
  Alcotest.(check bool) "pipeline spans recorded" true (spans <> []);
  (* Spans sharing a (stage, slot) track must be disjoint in time. *)
  let by_track = Hashtbl.create 64 in
  List.iter
    (fun (tr, _, ts, dur) ->
      Hashtbl.replace by_track tr
        ((ts, dur) :: (try Hashtbl.find by_track tr with Not_found -> [])))
    spans;
  Hashtbl.iter
    (fun _ intervals ->
      let sorted = List.sort compare intervals in
      ignore
        (List.fold_left
           (fun prev_end (ts, dur) ->
             if ts < prev_end -. 1e-12 then
               Alcotest.fail "overlapping spans on one pipeline track";
             ts +. dur)
           neg_infinity sorted))
    by_track;
  match Metrics.histogram (Sink.metrics obs) "pipeline/stage_utilization" with
  | None -> Alcotest.fail "no stage-utilization histogram"
  | Some s ->
    Alcotest.(check int) "one utilization sample per stage"
      (List.length t.Hnlpu.Trace.stage_stats)
      s.Metrics.count

let test_pipeline_trace_obs_identical () =
  (* Recording spans must not move a number: the result is Marshal-identical
     with and without a sink, and one span is kept per (token, stage) of
     the first [obs_tokens] tokens. *)
  let bytes t = Marshal.to_string (t : Hnlpu.Trace.t) [ Marshal.No_sharing ] in
  List.iter
    (fun (tokens, obs_tokens) ->
      let plain = Hnlpu.Trace.run ~tokens config in
      let obs = Sink.create () in
      let traced = Hnlpu.Trace.run ~tokens ~obs ~obs_tokens config in
      Alcotest.(check string)
        (Printf.sprintf "%d tokens, %d traced" tokens obs_tokens)
        (bytes plain) (bytes traced);
      let spans =
        List.filter
          (fun ((tr : Event.track), _, _, _) -> tr.Event.process = "pipeline")
          (spans_of (Sink.events obs))
      in
      Alcotest.(check int) "spans = traced tokens x stages"
        (min tokens obs_tokens * List.length plain.Hnlpu.Trace.stage_stats)
        (List.length spans))
    [ (20, 0); (20, 3); (12, 40) ]

(* --- NoC instrumentation ------------------------------------------------------ *)

let test_noc_obs () =
  let group = Hnlpu.Topology.col_group 0 in
  let bytes = 4096 in
  let plan = Hnlpu.Schedule.all_reduce ~group ~bytes in
  let vals =
    List.map (fun c -> (c, Array.init 6 (fun i -> float_of_int (c * 10 + i)))) group
  in
  let plain = Hnlpu.Schedule.run_all_reduce ~plan ~group vals in
  let obs = Sink.create () in
  let instrumented = Hnlpu.Schedule.run_all_reduce ~plan ~obs ~group vals in
  Alcotest.(check bool) "values unaffected by the sink" true
    (plain = instrumented);
  let m = Sink.metrics obs in
  let plan_bytes =
    List.fold_left
      (fun acc step ->
        List.fold_left (fun a tr -> a + tr.Hnlpu.Schedule.bytes) acc step)
      0 plan
  in
  Alcotest.(check (option (float 0.0))) "bytes tally matches the plan"
    (Some (float_of_int plan_bytes))
    (Metrics.counter m "noc/bytes_sent");
  Alcotest.(check (option (float 0.0))) "transfer count"
    (Some (float_of_int (Hnlpu.Schedule.transfer_count plan)))
    (Metrics.counter m "noc/transfers");
  let makespan = Hnlpu.Schedule.makespan plan in
  (match Metrics.gauge m "noc/makespan_s" with
  | None -> Alcotest.fail "no makespan gauge"
  | Some g -> Alcotest.(check (float 1e-12)) "makespan gauge agrees" makespan g);
  (* Span stream covers the same window the closed-form makespan claims. *)
  let last_end =
    List.fold_left
      (fun acc e -> Float.max acc (Event.end_s e))
      0.0 (Sink.events obs)
  in
  Alcotest.(check bool) "spans end by the makespan" true
    (last_end <= makespan +. 1e-9)

(* --- Thermal instrumentation --------------------------------------------------- *)

let test_thermal_obs () =
  let obs = Sink.create () in
  let th = Hnlpu.Thermal.analyze ~obs () in
  let m = Sink.metrics obs in
  (match Metrics.gauge m "thermal/peak_w_per_mm2" with
  | None -> Alcotest.fail "no peak gauge"
  | Some g ->
    Alcotest.(check (float 1e-12)) "peak gauge matches the result"
      th.Hnlpu.Thermal.peak_w_per_mm2 g);
  Alcotest.(check bool) "operating-point instant recorded" true
    (List.exists
       (function
         | Event.Instant { name = "operating_point"; _ } -> true
         | _ -> false)
       (Sink.events obs))

(* --- The combined timeline ------------------------------------------------------ *)

let test_combined_timeline () =
  let obs = Sink.create () in
  ignore (sched_run ~obs 1);
  ignore (Hnlpu.Trace.run ~tokens:20 ~obs ~obs_tokens:4 config);
  let group = Hnlpu.Topology.col_group 0 in
  ignore
    (Hnlpu.Schedule.run_all_reduce ~obs ~group
       (List.map (fun c -> (c, [| 1.0 |])) group));
  let span_processes =
    List.sort_uniq compare
      (List.filter_map
         (function
           | Event.Span { track; _ } -> Some track.Event.process
           | _ -> None)
         (Sink.events obs))
  in
  Alcotest.(check bool) "spans from at least three subsystems" true
    (List.length span_processes >= 3);
  (* And the whole stream still exports as strict JSON. *)
  match parse_json (Chrome_trace.to_json (Sink.events obs)) with
  | Obj _ -> ()
  | _ -> Alcotest.fail "trace export is not a JSON object"

(* --- Sketch: bounded-memory deterministic quantiles --------------------------- *)

let feed_sketch xs =
  let sk = Sketch.create () in
  Array.iter (Sketch.observe sk) xs;
  sk

(* |sketch - exact| within the documented bound: 1/64 relative plus the
   2^-64 zero-bucket absolute term, plus an fp-rounding whisker.  All
   generators below produce non-negative samples, where the mli's
   general bound collapses to this form. *)
let within_bound exact est =
  Float.abs (est -. exact)
  <= (Sketch.relative_error *. Float.abs exact)
     +. Float.ldexp 1.0 (-64)
     +. (1e-12 *. Float.abs exact)

let test_sketch_empty_and_singleton () =
  let sk = Sketch.create () in
  Alcotest.(check int) "empty count" 0 (Sketch.count sk);
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Sketch.quantile sk 0.5));
  Sketch.observe sk 7.25;
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "singleton exact at p=%g" p)
        7.25 (Sketch.quantile sk p))
    [ 0.0; 0.5; 0.95; 0.99; 1.0 ];
  Alcotest.(check (float 0.0)) "singleton mean" 7.25 (Sketch.mean sk)

let test_sketch_constant_and_extremes () =
  let sk = feed_sketch (Array.make 1000 3.14) in
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "constant exact at p=%g" p)
        3.14 (Sketch.quantile sk p))
    [ 0.0; 0.5; 0.99; 1.0 ];
  let xs = Array.init 999 (fun i -> float_of_int (i + 1)) in
  let sk = feed_sketch xs in
  (* p=0 and p=1 are the exactly tracked min and max. *)
  Alcotest.(check (float 0.0)) "p0 is min" 1.0 (Sketch.quantile sk 0.0);
  Alcotest.(check (float 0.0)) "p1 is max" 999.0 (Sketch.quantile sk 1.0);
  Alcotest.(check (float 0.0)) "min_v" 1.0 (Sketch.min_v sk);
  Alcotest.(check (float 0.0)) "max_v" 999.0 (Sketch.max_v sk)

let test_sketch_rejects_bad_input () =
  let sk = Sketch.create () in
  Alcotest.(check bool) "nan sample raises" true
    (match Sketch.observe sk nan with
    | exception Invalid_argument _ -> true
    | () -> false);
  Sketch.observe sk 1.0;
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "p=%g raises" p)
        true
        (match Sketch.quantile sk p with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ -0.1; 1.5; nan ]

let test_sketch_deterministic_export () =
  let xs = Array.init 5000 (fun i -> exp (float_of_int (i mod 97) /. 13.0)) in
  let a = feed_sketch xs and b = feed_sketch xs in
  Alcotest.(check string) "same inputs, byte-identical JSON"
    (Sketch.to_json a) (Sketch.to_json b);
  match parse_json (Sketch.to_json a) with
  | Obj _ ->
    Alcotest.(check int) "exported count" 5000
      (int_of_float (as_num (member "count" (parse_json (Sketch.to_json a)))))
  | _ -> Alcotest.fail "sketch export is not a JSON object"

let test_sketch_merge_order_insensitive () =
  let rng = Hnlpu.Rng.create 99 in
  let xs = Array.init 4000 (fun _ -> exp (4.0 *. Hnlpu.Rng.float rng 1.0)) in
  let part i = Array.init 1000 (fun j -> xs.((i * 1000) + j)) in
  let shards () = Array.init 4 (fun i -> feed_sketch (part i)) in
  let combined = feed_sketch xs in
  let fwd = Sketch.create () and rev = Sketch.create () in
  let s1 = shards () and s2 = shards () in
  for i = 0 to 3 do
    Sketch.merge_into ~into:fwd s1.(i);
    Sketch.merge_into ~into:rev s2.(3 - i)
  done;
  List.iter
    (fun p ->
      let q = Sketch.quantile combined p in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "merge = combined at p=%g" p)
        q (Sketch.quantile fwd p);
      Alcotest.(check (float 0.0))
        (Printf.sprintf "reverse merge = combined at p=%g" p)
        q (Sketch.quantile rev p))
    [ 0.0; 0.5; 0.95; 0.99; 1.0 ];
  Alcotest.(check int) "count" (Sketch.count combined) (Sketch.count fwd);
  Alcotest.(check (float 0.0)) "min" (Sketch.min_v combined) (Sketch.min_v fwd);
  Alcotest.(check (float 0.0)) "max" (Sketch.max_v combined) (Sketch.max_v fwd);
  Alcotest.(check (float 1e-9)) "mean within fp of combined"
    (Sketch.mean combined) (Sketch.mean fwd)

let test_sketch_memory_flat () =
  let small = feed_sketch (Array.init 100 (fun i -> float_of_int (i + 1))) in
  let rng = Hnlpu.Rng.create 3 in
  let big =
    feed_sketch
      (Array.init 100_000 (fun _ -> exp (10.0 *. (Hnlpu.Rng.float rng 1.0 -. 0.5))))
  in
  Alcotest.(check int) "live words independent of sample count"
    (Sketch.live_words small) (Sketch.live_words big);
  let observe_n m n =
    for i = 1 to n do
      Metrics.observe m "h" (float_of_int i)
    done
  in
  let sk_m = Metrics.create () in
  observe_n sk_m 50_000;
  let sk_baseline = Metrics.live_words sk_m in
  observe_n sk_m 50_000;
  Alcotest.(check int) "sketch registry flat under 2x samples" sk_baseline
    (Metrics.live_words sk_m)

let test_scheduler_sink_flat () =
  (* A counters-only sink on the scheduler retains the same words at 10x
     the requests: its telemetry is bounded by its series, not by the
     trace length. *)
  let words n =
    let obs = Sink.create ~events:false () in
    ignore
      (Hnlpu.Scheduler.simulate ~obs config
         (Thelp.chat_requests ~seed:7 ~n ~rate_per_s:20_000.0 ~mean_prefill:16
            ~mean_decode:16));
    Sink.live_words obs
  in
  Alcotest.(check int) "live words at 2k = at 20k requests" (words 2_000)
    (words 20_000)

let test_sketch_live_words_pinned () =
  (* Two scalar blocks (12 words) and one sign's 4096 32-bit counters: a
     16,384-byte [Bytes.t] spans 2,049 words plus its header, and the
     absent negative side is the 2-word [Bytes.empty]. *)
  let check label expect sk =
    Alcotest.(check int) (label ^ ": live_words") expect (Sketch.live_words sk);
    Alcotest.(check int) (label ^ ": reachable words") expect
      (Obj.reachable_words (Obj.repr sk))
  in
  let sk = Sketch.create () in
  check "fresh" 2_064 sk;
  let rng = Hnlpu.Rng.create 5 in
  for _ = 1 to 100_000 do
    Sketch.observe sk (exp (40.0 *. (Hnlpu.Rng.float rng 1.0 -. 0.5)))
  done;
  check "after 10^5 samples" 2_064 sk;
  Sketch.observe sk (-1.0);
  check "with a negative sample" 4_112 sk

let test_sketch_bucket_limit () =
  (* Self-merging doubles every count: 31 doublings take one sample's
     bucket to 2^31, the 32nd would reach 2^32 and raises, leaving the
     sketch as it was. *)
  let full = Invalid_argument "Sketch.merge_into: bucket count would exceed 2^32 - 1" in
  let sk = feed_sketch [| 1.0 |] in
  for _ = 1 to 31 do
    Sketch.merge_into ~into:sk sk
  done;
  Alcotest.(check int) "2^31 after 31 doublings" (1 lsl 31) (Sketch.count sk);
  Alcotest.check_raises "32nd doubling raises" full (fun () -> Sketch.merge_into ~into:sk sk);
  Alcotest.(check int) "count unchanged by the failed merge" (1 lsl 31) (Sketch.count sk);
  Alcotest.(check (float 0.0)) "median unchanged" 1.0 (Sketch.quantile sk 0.5);
  (* A bucket at 2^32 - 1 = 2^31 + (2^31 - 1): binary doubling builds the
     second term in [acc]. *)
  let acc = Sketch.create () and pow = feed_sketch [| 1.0 |] in
  for _ = 0 to 30 do
    Sketch.merge_into ~into:acc pow;
    Sketch.merge_into ~into:pow pow
  done;
  Sketch.merge_into ~into:acc pow;
  Alcotest.(check int) "bucket at 2^32 - 1" 0xFFFF_FFFF (Sketch.count acc);
  Alcotest.check_raises "observe into a full bucket raises"
    (Invalid_argument "Sketch.observe: bucket count would exceed 2^32 - 1")
    (fun () -> Sketch.observe acc 1.0);
  Alcotest.(check int) "count unchanged by the failed observe" 0xFFFF_FFFF (Sketch.count acc);
  (* Other buckets still take samples. *)
  Sketch.observe acc 2.0;
  Alcotest.(check (float 0.0)) "a different bucket still counts" 2.0 (Sketch.max_v acc)

let test_sketch_observe_allocates_nothing () =
  (* 10^4 calls of each entry point allocate no minor-heap word.  The
     [observe] samples are boxed once, up front (a float computed at the
     call site would be boxed by the caller); [observe_cell] reads them
     from a flat cell.  Both signs are warmed up first, so the lazy
     negative counters exist before measuring. *)
  let samples = List.init 100 (fun i -> (float_of_int (i - 30) *. 1.37) +. 0.01) in
  let sk = Sketch.create () in
  let rec feed = function
    | [] -> ()
    | v :: rest ->
      Sketch.observe sk v;
      feed rest
  in
  feed samples;
  let cell = Float.Array.make 3 0.0 in
  let words f =
    (* A full major first: no collection work an earlier suite left
       pending runs inside the window. *)
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  Alcotest.(check (float 0.0)) "observe: minor words for 10^4 calls" 0.0
    (words (fun () ->
         for _ = 1 to 100 do
           feed samples
         done));
  Alcotest.(check (float 0.0)) "observe_cell: minor words for 10^4 calls" 0.0
    (words (fun () ->
         for i = 1 to 10_000 do
           Float.Array.set cell 1 ((float_of_int (i - 3_000) *. 0.37) +. 0.01);
           Sketch.observe_cell sk cell 1
         done));
  Alcotest.(check int) "every call counted" 20_100 (Sketch.count sk)

let test_sketch_observe_cell_is_observe () =
  let rng = Hnlpu.Rng.create 17 in
  let xs = Array.init 5_000 (fun _ -> exp (8.0 *. (Hnlpu.Rng.float rng 1.0 -. 0.5)) -. 0.5) in
  let cell = Float.Array.make 1 0.0 in
  let via_cell = Sketch.create () in
  Array.iter
    (fun x ->
      Float.Array.set cell 0 x;
      Sketch.observe_cell via_cell cell 0)
    xs;
  Alcotest.(check string) "same JSON as observe" (Sketch.to_json (feed_sketch xs))
    (Sketch.to_json via_cell);
  Alcotest.check_raises "nan through the cell raises"
    (Invalid_argument "Sketch.observe: nan sample") (fun () ->
      Float.Array.set cell 0 nan;
      Sketch.observe_cell via_cell cell 0)

let test_sketch_tiny_and_overflow () =
  (* Below 2^-64 everything collapses into the zero bucket (absolute
     error <= 2^-64); at or above 2^64 the overflow bucket reports the
     exact observed extreme. *)
  let sk = feed_sketch [| 0.0; 1e-30; 4.9e-324; 1e-22 |] in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "tiny magnitudes within 2^-64 at p=%g" p)
        true
        (Float.abs (Sketch.quantile sk p) <= Float.ldexp 1.0 (-64)))
    [ 0.25; 0.5; 0.75 ];
  let sk = feed_sketch [| 1.0; Float.ldexp 1.0 80; Float.ldexp 1.0 100 |] in
  Alcotest.(check (float 0.0)) "overflow max exact"
    (Float.ldexp 1.0 100) (Sketch.quantile sk 1.0);
  let sk = feed_sketch [| -2.5; -1.0; 1.0; 2.5 |] in
  Alcotest.(check bool) "negative median within bound" true
    (within_bound 0.0 (Sketch.quantile sk 0.5));
  Alcotest.(check (float 0.0)) "negative min exact" (-2.5)
    (Sketch.quantile sk 0.0)

(* QCheck: sketch p50/p95/p99 stay within the documented error bound of
   the exact Stats.percentile over adversarial sample distributions. *)

let quantile_points = [ 0.5; 0.95; 0.99 ]

let sketch_agrees_with_exact xs =
  let sk = feed_sketch xs in
  List.for_all
    (fun p -> within_bound (Hnlpu.Stats.percentile xs p) (Sketch.quantile sk p))
    quantile_points

let prop_sketch_heavy_tail =
  QCheck.Test.make ~name:"sketch vs exact: heavy tail (lognormal-ish)" ~count:50
    QCheck.(pair (int_range 1 3000) int)
    (fun (n, seed) ->
      let rng = Hnlpu.Rng.create seed in
      sketch_agrees_with_exact
        (Array.init n (fun _ ->
             exp (10.0 *. (Hnlpu.Rng.float rng 1.0 -. 0.5)))))

let prop_sketch_bimodal =
  QCheck.Test.make ~name:"sketch vs exact: bimodal with a 1e6 gap" ~count:50
    QCheck.(pair (int_range 1 3000) int)
    (fun (n, seed) ->
      let rng = Hnlpu.Rng.create seed in
      sketch_agrees_with_exact
        (Array.init n (fun _ ->
             if Hnlpu.Rng.float rng 1.0 < 0.5 then
               1e-3 *. (1.0 +. Hnlpu.Rng.float rng 0.5)
             else 1e3 *. (1.0 +. Hnlpu.Rng.float rng 0.5))))

let prop_sketch_constant =
  QCheck.Test.make ~name:"sketch vs exact: constant arrays" ~count:100
    QCheck.(pair (int_range 1 2000) (float_range 1e-12 1e12))
    (fun (n, c) -> sketch_agrees_with_exact (Array.make n c))

let prop_sketch_denormal_adjacent =
  QCheck.Test.make
    ~name:"sketch vs exact: denormal-adjacent magnitudes around 2^-64"
    ~count:50
    QCheck.(pair (int_range 1 2000) int)
    (fun (n, seed) ->
      let rng = Hnlpu.Rng.create seed in
      (* Magnitudes from 2^-80 to 2^-50: straddles the zero-bucket
         threshold, including true denormal territory. *)
      sketch_agrees_with_exact
        (Array.init n (fun _ ->
             Float.ldexp (1.0 +. Hnlpu.Rng.float rng 1.0)
               (-80 + int_of_float (30.0 *. Hnlpu.Rng.float rng 1.0)))))

let prop_sketch_merge_split_invariant =
  QCheck.Test.make
    ~name:"sketch merge of any split = combined feed (quantiles exact)"
    ~count:50
    QCheck.(triple (int_range 2 2000) (int_range 0 10_000) int)
    (fun (n, cut, seed) ->
      let rng = Hnlpu.Rng.create seed in
      let xs =
        Array.init n (fun _ -> exp (8.0 *. (Hnlpu.Rng.float rng 1.0 -. 0.5)))
      in
      let k = cut mod n in
      let a = feed_sketch (Array.sub xs 0 k) in
      let b = feed_sketch (Array.sub xs k (n - k)) in
      Sketch.merge_into ~into:a b;
      let c = feed_sketch xs in
      Sketch.count a = Sketch.count c
      && List.for_all
           (fun p -> Sketch.quantile a p = Sketch.quantile c p)
           (0.0 :: 1.0 :: quantile_points))

(* The binary search over exact octave bounds that [Sketch.bucket_index]
   replaced, kept as its reference: octave o holds [2^(o-64), 2^(o-63)),
   and the sub-bucket is the exact truncation of (|v| / 2^e - 1) * 32. *)
let reference_bucket_index v =
  let bounds = Array.init 129 (fun i -> Float.ldexp 1.0 (i - 64)) in
  let a = Float.abs v in
  let rec octave lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if a < bounds.(mid) then octave lo mid else octave mid hi
  in
  let o = octave 0 128 in
  let s = int_of_float (((a /. bounds.(o)) -. 1.0) *. 32.0) in
  (o lsl 5) + max 0 (min 31 s)

let bucket_matches v =
  Sketch.bucket_index v = reference_bucket_index v
  && Sketch.bucket_index (-.v) = reference_bucket_index (-.v)

let prop_sketch_bucket_index_random =
  QCheck.Test.make ~name:"bucket index = binary search, both signs, all octaves"
    ~count:2000
    QCheck.(pair (int_range (-64) 63) (float_bound_exclusive 1.0))
    (fun (e, u) -> bucket_matches (Float.ldexp (1.0 +. u) e))

let test_sketch_bucket_index_edges () =
  let lo = Float.ldexp 1.0 (-64) and hi = Float.ldexp 1.0 64 in
  let in_range v = v >= lo && v < hi in
  let edges =
    List.concat_map
      (fun k ->
        let p = Float.ldexp 1.0 k in
        [ p; Float.pred p; Float.succ p ])
      (List.init 129 (fun i -> i - 64))
  in
  List.iter
    (fun v ->
      if in_range v then
        Alcotest.(check bool) (Printf.sprintf "bucket of +-%h" v) true (bucket_matches v))
    (lo :: Float.pred hi :: edges);
  Alcotest.(check int) "2^-64 is the first bucket" 0 (Sketch.bucket_index lo);
  Alcotest.(check int) "pred 2^64 is the last bucket" 4095
    (Sketch.bucket_index (Float.pred hi))

(* --- Gauge stamps: shard-merge order cannot change gauges --------------------- *)

let test_gauge_stamp_merge () =
  let mk stamp v =
    let m = Metrics.create () in
    Metrics.set_stamped m ~stamp "g" v;
    m
  in
  let merged first second =
    let into = Metrics.create () in
    Metrics.merge_into ~into first;
    Metrics.merge_into ~into second;
    (Metrics.gauge into "g", Metrics.gauge_stamp into "g")
  in
  let a = mk 5.0 1.0 and b = mk 2.0 9.0 in
  (* Latest stamp wins in both merge orders, even though the earlier
     stamp carries the larger value. *)
  Alcotest.(check (pair (option (float 0.0)) (option (float 0.0))))
    "a then b keeps the latest-stamped value"
    (Some 1.0, Some 5.0) (merged a b);
  Alcotest.(check (pair (option (float 0.0)) (option (float 0.0))))
    "b then a keeps the latest-stamped value"
    (Some 1.0, Some 5.0) (merged b a);
  (* Equal stamps: ties resolve to the larger value, same both ways. *)
  let c = mk 3.0 4.0 and d = mk 3.0 6.0 in
  Alcotest.(check (option (float 0.0))) "tie to larger (c,d)" (Some 6.0)
    (fst (merged c d));
  Alcotest.(check (option (float 0.0))) "tie to larger (d,c)" (Some 6.0)
    (fst (merged d c));
  (* An unstamped set carries stamp -inf, so any stamped write beats it. *)
  let u = Metrics.create () in
  Metrics.set u "g" 100.0;
  Alcotest.(check (option (float 0.0))) "stamped beats unstamped" (Some 1.0)
    (fst (merged u a));
  Alcotest.(check (option (float 0.0))) "unstamped loses either way" (Some 1.0)
    (fst (merged a u))

let test_sink_sample_stamps () =
  let o = Sink.create ~events:false () in
  Sink.sample o ~track ~name:"q" ~ts_s:1.5 10.0;
  Sink.sample o ~track ~name:"q" ~ts_s:4.5 2.0;
  Alcotest.(check (option (float 0.0))) "value is the last sample" (Some 2.0)
    (Metrics.gauge (Sink.metrics o) "q");
  Alcotest.(check (option (float 0.0))) "stamp is the sample time" (Some 4.5)
    (Metrics.gauge_stamp (Sink.metrics o) "q")

let test_scheduler_shard_merge_order_free () =
  (* Two different runs merged in both orders: identical registries,
     including the stamped end-of-run gauges. *)
  let shard seed =
    let obs = Sink.create ~events:false () in
    ignore (sched_run ~obs seed);
    obs
  in
  let merge_json order =
    let into = Sink.create ~events:false () in
    List.iter (fun o -> Sink.merge_into ~into o) order;
    Metrics.to_json (Sink.metrics into)
  in
  let a = shard 5 and b = shard 17 in
  Alcotest.(check string) "merge order does not change merged metrics"
    (merge_json [ a; b ]) (merge_json [ b; a ])

(* --- Ring wraparound + counters-only parity ----------------------------------- *)

let test_ring_wraparound_metrics_parity () =
  (* A full sink whose ring is far too small (forced wraparound), a
     roomy full sink, and a counters-only sink must all report the same
     metric summaries for the same simulation: metric aggregation is
     independent of event retention. *)
  let run sink =
    ignore (sched_run ~obs:sink 29);
    Metrics.to_json (Sink.metrics sink)
  in
  let tiny = Sink.create ~capacity:8 () in
  let roomy = Sink.create () in
  let counters_only = Sink.create ~events:false () in
  let j_tiny = run tiny and j_roomy = run roomy and j_off = run counters_only in
  Alcotest.(check bool) "tiny ring actually wrapped" true
    (Sink.dropped tiny > 0);
  Alcotest.(check int) "tiny ring retains only its capacity" 8
    (List.length (Sink.events tiny));
  Alcotest.(check int) "counters-only retains nothing" 0
    (Sink.recorded counters_only);
  Alcotest.(check string) "wrapped ring, same metrics" j_roomy j_tiny;
  Alcotest.(check string) "counters-only, same metrics" j_roomy j_off;
  (* The sketch-backed histograms are included in that parity. *)
  match
    Metrics.histogram (Sink.metrics counters_only) "scheduler/ttft_s"
  with
  | None -> Alcotest.fail "no TTFT histogram on the counters-only sink"
  | Some s -> Alcotest.(check bool) "histogram populated" true (s.Metrics.count > 0)

let suites =
  [
    ( "json",
      [
        Alcotest.test_case "parser is strict" `Quick test_parser_is_strict;
        Alcotest.test_case "combinators" `Quick test_json_combinators;
      ] );
    ("ring", [ Alcotest.test_case "bounds and order" `Quick test_ring ]);
    ( "metrics",
      [
        Alcotest.test_case "basic" `Quick test_metrics_basic;
        Alcotest.test_case "kind conflict" `Quick test_metrics_kind_conflict;
        Alcotest.test_case "strict json" `Quick test_metrics_json_strict;
      ] );
    ( "sink",
      [
        Alcotest.test_case "rejects bad spans" `Quick test_sink_rejects_bad_spans;
        Alcotest.test_case "capacity" `Quick test_sink_capacity;
      ] );
    ( "chrome-trace",
      [
        Alcotest.test_case "export" `Quick test_chrome_trace_export;
        Alcotest.test_case "jsonl" `Quick test_jsonl_export;
      ] );
    ( "scheduler",
      [
        Alcotest.test_case "no sink is bit-identical" `Quick
          test_no_sink_bit_identical;
        Alcotest.test_case "same seed exports identically" `Quick
          test_same_seed_export_identical;
        Alcotest.test_case "request spans" `Quick test_scheduler_spans;
      ] );
    ( "pipeline",
      [
        Alcotest.test_case "trace obs" `Quick test_pipeline_trace_obs;
        Alcotest.test_case "trace obs leaves results identical" `Quick
          test_pipeline_trace_obs_identical;
      ] );
    ("noc", [ Alcotest.test_case "all-reduce obs" `Quick test_noc_obs ]);
    ("thermal", [ Alcotest.test_case "gauges" `Quick test_thermal_obs ]);
    ( "end-to-end",
      [ Alcotest.test_case "combined timeline" `Quick test_combined_timeline ]
    );
    ( "sketch",
      [
        Alcotest.test_case "empty and singleton" `Quick
          test_sketch_empty_and_singleton;
        Alcotest.test_case "constant and extremes" `Quick
          test_sketch_constant_and_extremes;
        Alcotest.test_case "rejects bad input" `Quick
          test_sketch_rejects_bad_input;
        Alcotest.test_case "deterministic export" `Quick
          test_sketch_deterministic_export;
        Alcotest.test_case "merge order-insensitive" `Quick
          test_sketch_merge_order_insensitive;
        Alcotest.test_case "memory flat" `Quick test_sketch_memory_flat;
        Alcotest.test_case "scheduler sink flat 2k vs 20k" `Quick
          test_scheduler_sink_flat;
        Alcotest.test_case "tiny and overflow" `Quick
          test_sketch_tiny_and_overflow;
        Alcotest.test_case "live words pinned" `Quick
          test_sketch_live_words_pinned;
        Alcotest.test_case "32-bit bucket limit" `Quick test_sketch_bucket_limit;
        Alcotest.test_case "observe allocates nothing" `Quick
          test_sketch_observe_allocates_nothing;
        Alcotest.test_case "observe_cell = observe" `Quick
          test_sketch_observe_cell_is_observe;
        Alcotest.test_case "bucket index at powers of two" `Quick
          test_sketch_bucket_index_edges;
      ] );
    ( "gauge-stamps",
      [
        Alcotest.test_case "merge by latest stamp" `Quick
          test_gauge_stamp_merge;
        Alcotest.test_case "sink sample stamps" `Quick test_sink_sample_stamps;
        Alcotest.test_case "shard merge order free" `Quick
          test_scheduler_shard_merge_order_free;
      ] );
    ( "ring-parity",
      [
        Alcotest.test_case "wraparound metrics parity" `Quick
          test_ring_wraparound_metrics_parity;
      ] );
    Thelp.qsuite "properties" [ prop_spans_wellformed ];
    Thelp.qsuite "sketch-properties"
      [
        prop_sketch_heavy_tail;
        prop_sketch_bimodal;
        prop_sketch_constant;
        prop_sketch_denormal_adjacent;
        prop_sketch_merge_split_invariant;
        prop_sketch_bucket_index_random;
      ];
  ]
