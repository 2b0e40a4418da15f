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

(* Events are immediate ints, so pushing one allocates nothing: [wakeup],
   or [3 * id + kind] for request [id] and one of the kinds below. *)
let wakeup = -1
let ev_arrival = 0
let ev_prefill = 1  (* A prefill token completed. *)
let ev_decode = 2   (* A decode token completed. *)

(* Unset timestamps in the per-sequence float arrays are NaN. *)
let is_unset (x : float) = x <> x
[@@inline]

let saturated_throughput ?(context = 2048) config =
  Perf.throughput_tokens_per_s config ~context

let obs_track = Hnlpu_obs.Event.track ~process:"scheduler"

(* Simulation clock state.  All fields are float, so the record is flat
   (unboxed storage) and the per-event stores allocate nothing. *)
type clock = {
  mutable occupancy : float;
  mutable last_time : float;
  mutable makespan : float;
  mutable next_inject : float;
  mutable woken_for : float;  (** Time of the last pipeline wakeup pushed. *)
}

let fresh_clock () =
  {
    occupancy = 0.0;
    last_time = 0.0;
    makespan = 0.0;
    next_inject = 0.0;
    woken_for = neg_infinity;
  }

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

let simulate ?(context = 2048) ?(context_aware = false) ?(slot_failures = [])
    ?obs config requests =
  let latency = Perf.token_latency_cached config ~context in
  (* Context-aware latency, bucketed at powers of two and memoized. *)
  let bucket_cache = Hashtbl.create 16 in
  let latency_at position =
    if not context_aware then latency
    else begin
      let b = pow2_bucket 2048 position in
      match Hashtbl.find_opt bucket_cache b with
      | Some l -> l
      | None ->
        let l = Perf.token_latency_cached config ~context:b in
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
  let reqs = Array.of_list requests in
  let n = Array.length reqs in
  (* Per-sequence state, indexed by request id. *)
  let prefill_remaining = Array.make n 0 in
  let prefill_inflight = Array.make n 0 in
  let decode_remaining = Array.make n 0 in
  let position = Array.make n 0 in  (* Tokens consumed so far. *)
  let injected_first = Float.Array.make n Float.nan in
  let first_token = Float.Array.make n Float.nan in  (* First decode completion. *)
  let prefill_done = Float.Array.make n Float.nan in  (* Last prefill completion. *)
  let events : int Heap.t = Heap.create ~dummy:wakeup () in
  Array.iteri
    (fun id r ->
      if r.arrival_s < 0.0 || r.prefill_tokens < 1 || r.decode_tokens < 1 then
        invalid_arg "Scheduler.simulate: malformed request";
      prefill_remaining.(id) <- r.prefill_tokens;
      decode_remaining.(id) <- r.decode_tokens;
      Heap.push events ~priority:r.arrival_s ((3 * id) + ev_arrival))
    reqs;
  List.iter
    (fun (t, _) -> Heap.push events ~priority:t wakeup)
    slot_failures;
  let decode_queue : int Fifo.t = Fifo.create ~dummy:(-1) () in
  let prefill_queue : int Fifo.t = Fifo.create ~dummy:(-1) () in
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
  let record_completion id ~finish =
    match obs with
    | None -> ()
    | Some o ->
      let module Sink = Hnlpu_obs.Sink in
      let module Event = Hnlpu_obs.Event in
      let m = Sink.metrics o in
      let r = reqs.(id) in
      let arrival = r.arrival_s in
      (* A finished request has set all three timestamps. *)
      let injected = Float.Array.get injected_first id in
      let prefill_done = Float.Array.get prefill_done id in
      let first_token = Float.Array.get first_token id in
      let track = obs_track ~thread:(Printf.sprintf "req%04d" id) in
      let args =
        [
          ("id", Event.I id);
          ("prefill_tokens", Event.I r.prefill_tokens);
          ("decode_tokens", Event.I r.decode_tokens);
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
  let injecting = ref false in
  let try_inject now =
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
           stalled injection — and wake up at the slot time.  One pending
           wakeup per slot time: [next_inject] only grows, so a second
           one at the same time would find the entry already taken. *)
        if clock.woken_for <> clock.next_inject then begin
          Heap.push events ~priority:clock.next_inject wakeup;
          clock.woken_for <- clock.next_inject
        end;
        injecting := false
      end
      else begin
        let from_decode = not (Fifo.is_empty decode_queue) in
        let id =
          if from_decode then Fifo.pop decode_queue else Fifo.pop prefill_queue
        in
        if is_unset (Float.Array.get injected_first id) then
          Float.Array.set injected_first id now;
        if not from_decode then begin
          prefill_remaining.(id) <- prefill_remaining.(id) - 1;
          prefill_inflight.(id) <- prefill_inflight.(id) + 1;
          (* More prefill tokens of this sequence stay in the queue. *)
          if prefill_remaining.(id) > 0 then Fifo.push prefill_queue id
        end;
        incr busy;
        clock.next_inject <- now +. ii;
        position.(id) <- position.(id) + 1;
        Heap.push events
          ~priority:(now +. latency_at position.(id))
          ((3 * id) + if from_decode then ev_decode else ev_prefill)
      end
    done
  in
  while not (Heap.is_empty events) do
    let t = Heap.min_priority events in
    let ev = Heap.take_min events in
    advance_clock t;
    if ev = wakeup then try_inject t
    else begin
      let id = ev / 3 and kind = ev mod 3 in
      if kind = ev_arrival then Fifo.push prefill_queue id
      else begin
        decr busy;
        incr tokens;
        clock.makespan <- t;
        if kind = ev_prefill then begin
          prefill_inflight.(id) <- prefill_inflight.(id) - 1;
          if prefill_remaining.(id) = 0 && prefill_inflight.(id) = 0 then begin
            Float.Array.set prefill_done id t;
            Fifo.push decode_queue id
          end
        end
        else begin
          incr decode_tokens_out;
          if is_unset (Float.Array.get first_token id) then
            Float.Array.set first_token id t;
          decode_remaining.(id) <- decode_remaining.(id) - 1;
          if decode_remaining.(id) > 0 then Fifo.push decode_queue id
          else begin
            let r = reqs.(id) in
            completed :=
              {
                request = r;
                first_token_s = Float.Array.get first_token id;
                finish_s = t;
                queue_wait_s = Float.Array.get injected_first id -. r.arrival_s;
              }
              :: !completed;
            record_completion id ~finish:t
          end
        end
      end;
      try_inject t
    end;
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
