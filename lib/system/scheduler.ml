open Hnlpu_util

type request = { arrival_s : float; prefill_tokens : int; decode_tokens : int }

type completed = {
  request : request;
  first_token_s : float;
  finish_s : float;
  queue_wait_s : float;
}

type result = {
  completed_requests : completed list;
  makespan_s : float;
  tokens_processed : int;
  decode_tokens_out : int;
  throughput_tokens_per_s : float;
  mean_slot_occupancy : float;
}

let requests ~n cur =
  if n < 1 then invalid_arg "Scheduler.requests: n < 1";
  List.init n (fun _ ->
      Arrivals.next cur;
      {
        arrival_s = Arrivals.arrival_s cur;
        prefill_tokens = Arrivals.prefill_tokens cur;
        decode_tokens = Arrivals.decode_tokens cur;
      })

type token_kind = Prefill | Decode

(* [ev_prefill]/[ev_decode] are this sequence's completion events, built
   once at arrival and reused for every token — the simulator pushes one
   completion per simulated token, and allocating a fresh [Complete] each
   time was measurable minor-heap traffic under the domain pool. *)
type seq = {
  req : request;
  id : int;
  mutable prefill_remaining : int;
  mutable prefill_inflight : int;
  mutable decode_remaining : int;
  mutable position : int;                 (** Tokens consumed so far. *)
  mutable injected_first : float option;  (** First injection time. *)
  mutable first_token : float option;     (** First decode completion. *)
  mutable prefill_done : float option;    (** Last prefill-token completion. *)
  mutable ev_prefill : event;
  mutable ev_decode : event;
}

and event = Arrival of seq | Complete of seq * token_kind | Wakeup

let dummy_seq =
  (* Filler for the queues' and heap's freed slots; never injected. *)
  {
    req = { arrival_s = 0.0; prefill_tokens = 1; decode_tokens = 1 };
    id = -1;
    prefill_remaining = 0;
    prefill_inflight = 0;
    decode_remaining = 0;
    position = 0;
    injected_first = None;
    first_token = None;
    prefill_done = None;
    ev_prefill = Wakeup;
    ev_decode = Wakeup;
  }

let saturated_throughput ?tech ?(context = 2048) config =
  Perf.throughput_tokens_per_s ?tech config ~context

let obs_track = Hnlpu_obs.Event.track ~process:"scheduler"

(* Simulation clock state.  All fields are float, so the record is flat
   (unboxed storage) and the per-event stores allocate nothing. *)
type clock = {
  mutable occupancy : float;
  mutable last_time : float;
  mutable makespan : float;
  mutable next_inject : float;
}

let fresh_clock () =
  { occupancy = 0.0; last_time = 0.0; makespan = 0.0; next_inject = 0.0 }

let capacity_profile ~slots failures =
  (* Presorted prefix sums: O(log failures) per query instead of folding
     the whole failure list on every event. *)
  let a = Array.of_list failures in
  Array.sort (fun (t1, _) (t2, _) -> Float.compare t1 t2) a;
  let n = Array.length a in
  let times = Array.map fst a in
  let lost = Array.make (max 1 n) 0 in
  let acc = ref 0 in
  Array.iteri
    (fun i (_, k) ->
      acc := !acc + k;
      lost.(i) <- !acc)
    a;
  fun now ->
    if n = 0 || now < times.(0) then slots
    else begin
      (* Rightmost failure with time <= now; ties share the same time, and
         the rightmost one carries the cumulative loss of the whole tie
         group, matching the fold over the unsorted list. *)
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if times.(mid) <= now then lo := mid else hi := mid - 1
      done;
      max 0 (slots - lost.(!lo))
    end

(* Smallest power-of-two context bucket (>= 2048) covering [position].
   Module-level so [latency_at] does not rebuild the closure per event. *)
let rec pow2_bucket b position =
  if b >= max 2048 position then b else pow2_bucket (2 * b) position

let simulate ?tech ?(context = 2048) ?(context_aware = false) ?(slot_failures = [])
    ?obs config requests =
  let latency = Perf.token_latency_cached ?tech config ~context in
  (* Context-aware latency, bucketed at powers of two and memoized. *)
  let bucket_cache = Hashtbl.create 16 in
  let latency_at position =
    if not context_aware then latency
    else begin
      let b = pow2_bucket 2048 position in
      match Hashtbl.find_opt bucket_cache b with
      | Some l -> l
      | None ->
        let l = Perf.token_latency_cached ?tech config ~context:b in
        Hashtbl.add bucket_cache b l;
        l
    end
  in
  let slots = Perf.pipeline_slots config in
  List.iter
    (fun (t, n) ->
      if t < 0.0 || n < 0 then invalid_arg "Scheduler.simulate: bad failure")
    slot_failures;
  let capacity_at = capacity_profile ~slots slot_failures in
  let ii = latency /. float_of_int slots in
  let events : event Heap.t = Heap.create ~dummy:Wakeup () in
  List.iteri
    (fun id r ->
      if r.arrival_s < 0.0 || r.prefill_tokens < 1 || r.decode_tokens < 1 then
        invalid_arg "Scheduler.simulate: malformed request";
      let s =
        {
          req = r;
          id;
          prefill_remaining = r.prefill_tokens;
          prefill_inflight = 0;
          decode_remaining = r.decode_tokens;
          position = 0;
          injected_first = None;
          first_token = None;
          prefill_done = None;
          ev_prefill = Wakeup;
          ev_decode = Wakeup;
        }
      in
      s.ev_prefill <- Complete (s, Prefill);
      s.ev_decode <- Complete (s, Decode);
      Heap.push events ~priority:r.arrival_s (Arrival s))
    requests;
  List.iter
    (fun (t, _) -> Heap.push events ~priority:t Wakeup)
    slot_failures;
  let decode_queue : seq Fifo.t = Fifo.create ~dummy:dummy_seq () in
  let prefill_queue : seq Fifo.t = Fifo.create ~dummy:dummy_seq () in
  let busy = ref 0 in
  let completed = ref [] in
  let tokens = ref 0 and decode_tokens_out = ref 0 in
  (* All-float mutable record: the fields store unboxed, where float refs
     boxed a fresh float on every store — several stores per token. *)
  let clock = fresh_clock () in
  let advance_clock t =
    clock.occupancy <- clock.occupancy +. (float_of_int !busy *. (t -. clock.last_time));
    clock.last_time <- t
  in
  (* Counter-series samples, emitted only on value changes so the timeline
     stays readable; everything below is skipped when [obs] is absent. *)
  let last_queue = ref (-1) and last_busy = ref (-1) in
  let sample_gauges now =
    match obs with
    | None -> ()
    | Some o ->
      let module Sink = Hnlpu_obs.Sink in
      let track = obs_track ~thread:"load" in
      let q = Fifo.length prefill_queue + Fifo.length decode_queue in
      if q <> !last_queue then begin
        Sink.sample o ~track ~name:"scheduler/queue_depth" ~ts_s:now
          (float_of_int q);
        last_queue := q
      end;
      if !busy <> !last_busy then begin
        Sink.sample o ~track ~name:"scheduler/busy_slots" ~ts_s:now
          (float_of_int !busy);
        last_busy := !busy
      end
  in
  let record_completion (s : seq) ~finish =
    match obs with
    | None -> ()
    | Some o ->
      let module Sink = Hnlpu_obs.Sink in
      let module Event = Hnlpu_obs.Event in
      let m = Sink.metrics o in
      let arrival = s.req.arrival_s in
      let injected =
        match s.injected_first with Some x -> x | None -> arrival
      in
      let prefill_done =
        match s.prefill_done with Some x -> x | None -> injected
      in
      let first_token =
        match s.first_token with Some x -> x | None -> finish
      in
      let track = obs_track ~thread:(Printf.sprintf "req%04d" s.id) in
      let args =
        [
          ("id", Event.I s.id);
          ("prefill_tokens", Event.I s.req.prefill_tokens);
          ("decode_tokens", Event.I s.req.decode_tokens);
        ]
      in
      Sink.span o ~cat:"request" ~args ~track ~name:"request" ~start_s:arrival
        ~dur_s:(finish -. arrival);
      Sink.span o ~cat:"request" ~track ~name:"queued" ~start_s:arrival
        ~dur_s:(injected -. arrival);
      Sink.span o ~cat:"request" ~track ~name:"prefill" ~start_s:injected
        ~dur_s:(prefill_done -. injected);
      Sink.span o ~cat:"request" ~track ~name:"decode" ~start_s:prefill_done
        ~dur_s:(finish -. prefill_done);
      Sink.instant o ~cat:"request" ~track ~name:"first_token"
        ~ts_s:first_token;
      Hnlpu_obs.Metrics.incr m "scheduler/requests_completed";
      Hnlpu_obs.Metrics.observe m "scheduler/ttft_s" (first_token -. arrival);
      Hnlpu_obs.Metrics.observe m "scheduler/e2e_s" (finish -. arrival);
      Hnlpu_obs.Metrics.observe m "scheduler/queue_wait_s" (injected -. arrival)
  [@@hnlpu.lint_ignore "ALLOC-HOT"]
  (* Runs only when tracing ([obs]) is enabled, once per completed
     request; span and argument records inherently allocate. *)
  in
  (* Hoisted out of [try_inject]: per-call refs (and the recursive [go]
     closure this loop used to be) were a few words on every event, which
     adds up at one [try_inject] per event over millions of events. *)
  let injected_wakeup = ref false in
  let injecting = ref false in
  let try_inject now =
    injected_wakeup := false;
    injecting := true;
    let capacity = capacity_at now in
    while
      !injecting
      && !busy < capacity
      && not (Fifo.is_empty decode_queue && Fifo.is_empty prefill_queue)
    do
      if clock.next_inject > now then begin
        (* Pipeline entry busy: leave the queues untouched — popping the
           head and re-pushing it would rotate FIFO order on every
           stalled injection — and wake up at the slot time. *)
        if not !injected_wakeup then begin
          Heap.push events ~priority:clock.next_inject Wakeup;
          injected_wakeup := true
        end;
        injecting := false
      end
      else begin
        (* Two separate bindings, not a tuple destructure: the tuple
           was a 3-word allocation per injected token. *)
        let from_decode = not (Fifo.is_empty decode_queue) in
        let s =
          if from_decode then Fifo.pop decode_queue else Fifo.pop prefill_queue
        in
        let kind = if from_decode then Decode else Prefill in
        (match s.injected_first with
        | None -> s.injected_first <- Some now
        | Some _ -> ());
        (match kind with
        | Prefill ->
          s.prefill_remaining <- s.prefill_remaining - 1;
          s.prefill_inflight <- s.prefill_inflight + 1;
          (* More prefill tokens of this sequence stay in the queue. *)
          if s.prefill_remaining > 0 then Fifo.push prefill_queue s
        | Decode -> ());
        incr busy;
        clock.next_inject <- now +. ii;
        s.position <- s.position + 1;
        Heap.push events
          ~priority:(now +. latency_at s.position)
          (match kind with Prefill -> s.ev_prefill | Decode -> s.ev_decode)
      end
    done
  in
  while not (Heap.is_empty events) do
    let t = Heap.min_priority events in
    let ev = Heap.take_min events in
    advance_clock t;
    (match ev with
    | Wakeup -> try_inject t
    | Arrival s ->
      Fifo.push prefill_queue s;
      try_inject t
    | Complete (s, kind) ->
      decr busy;
      incr tokens;
      clock.makespan <- t;
      (match kind with
      | Prefill ->
        s.prefill_inflight <- s.prefill_inflight - 1;
        if s.prefill_remaining = 0 && s.prefill_inflight = 0 then begin
          s.prefill_done <- Some t;
          Fifo.push decode_queue s
        end
      | Decode ->
        incr decode_tokens_out;
        if s.first_token = None then s.first_token <- Some t;
        s.decode_remaining <- s.decode_remaining - 1;
        if s.decode_remaining > 0 then Fifo.push decode_queue s
        else begin
          let injected =
            match s.injected_first with Some x -> x | None -> s.req.arrival_s
          in
          completed :=
            {
              request = s.req;
              first_token_s = (match s.first_token with Some x -> x | None -> t);
              finish_s = t;
              queue_wait_s = injected -. s.req.arrival_s;
            }
            :: !completed;
          record_completion s ~finish:t
        end);
      try_inject t);
    sample_gauges t
  done;
  let makespan = clock.makespan in
  let result =
    {
      completed_requests = List.rev !completed;
      makespan_s = makespan;
      tokens_processed = !tokens;
      decode_tokens_out = !decode_tokens_out;
      throughput_tokens_per_s =
        (if makespan > 0.0 then float_of_int !tokens /. makespan else 0.0);
      mean_slot_occupancy =
        (if makespan > 0.0 then clock.occupancy /. (makespan *. float_of_int slots)
         else 0.0);
    }
  in
  (match obs with
  | None -> ()
  | Some o ->
    let m = Hnlpu_obs.Sink.metrics o in
    Hnlpu_obs.Metrics.incr m ~by:(float_of_int !tokens) "scheduler/tokens_processed";
    Hnlpu_obs.Metrics.incr m ~by:(float_of_int !decode_tokens_out)
      "scheduler/decode_tokens_out";
    (* Stamped with end-of-run sim time: when sweep shards merge, the
       longest-running shard's value wins whatever the merge order. *)
    Hnlpu_obs.Metrics.set_stamped m ~stamp:makespan "scheduler/makespan_s"
      makespan;
    Hnlpu_obs.Metrics.set_stamped m ~stamp:makespan
      "scheduler/throughput_tokens_per_s" result.throughput_tokens_per_s;
    Hnlpu_obs.Metrics.set_stamped m ~stamp:makespan
      "scheduler/mean_slot_occupancy" result.mean_slot_occupancy);
  result
