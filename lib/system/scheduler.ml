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

(* The event queue: a binary min-heap of immediate-int events keyed by
   time.  Times sit in a [Float.Array] and events in an [int array], so
   no store goes through [caml_modify] and no time is boxed; [push] is
   inlined into its callers, so the time it takes never crosses a call,
   and the loop reads the earliest time straight from [time.(0)].

   The sift rule fixes which of two equal-time events pops first, and
   with it every result: children 2i+1 and 2i+2, a strict [<] both ways,
   and on [take] the last slot's event refills the root.  A wider heap,
   or arrivals kept outside the heap, would pop ties in another order
   (all arrivals at t = 0, say).  Every slot a sift touches is at most
   [len], below the array length, so the sifts read and write
   unchecked. *)
module Events = struct
  type t = {
    mutable time : Float.Array.t;
    mutable ev : int array;
    mutable len : int;
  }

  (* The constructor allocates by nature, once per run. *)
  let create capacity =
    let cap = max 1 capacity in
    { time = Float.Array.make cap 0.0; ev = Array.make cap 0; len = 0 }
  [@@hnlpu.lint_ignore "ALLOC-HOT"]

  (* [simulate] sizes the heap to its peak, so this doubling is a
     safety net that a run does not reach. *)
  let grow h =
    let cap = 2 * Array.length h.ev in
    let time = Float.Array.make cap 0.0 and ev = Array.make cap 0 in
    Float.Array.blit h.time 0 time 0 h.len;
    Array.blit h.ev 0 ev 0 h.len;
    h.time <- time;
    h.ev <- ev

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      let t = Float.Array.unsafe_get h.time i in
      if t < Float.Array.unsafe_get h.time parent then begin
        let e = Array.unsafe_get h.ev i in
        Float.Array.unsafe_set h.time i (Float.Array.unsafe_get h.time parent);
        Array.unsafe_set h.ev i (Array.unsafe_get h.ev parent);
        Float.Array.unsafe_set h.time parent t;
        Array.unsafe_set h.ev parent e;
        sift_up h parent
      end
    end

  let[@inline] push h t e =
    if h.len = Array.length h.ev then grow h;
    let i = h.len in
    Float.Array.unsafe_set h.time i t;
    Array.unsafe_set h.ev i e;
    h.len <- i + 1;
    sift_up h i

  (* Settles the event parked in slot [len], just past the heap, into
     the hole at slot [i]: it is read from there rather than passed, so
     its time crosses no call. *)
  let rec sift_down h i =
    let n = h.len in
    let t = Float.Array.unsafe_get h.time n in
    let l = (2 * i) + 1 in
    let r = l + 1 in
    let c =
      if l < n && Float.Array.unsafe_get h.time l < t then
        if r < n && Float.Array.unsafe_get h.time r < Float.Array.unsafe_get h.time l
        then r
        else l
      else if r < n && Float.Array.unsafe_get h.time r < t then r
      else i
    in
    if c = i then begin
      Float.Array.unsafe_set h.time i t;
      Array.unsafe_set h.ev i (Array.unsafe_get h.ev n)
    end
    else begin
      Float.Array.unsafe_set h.time i (Float.Array.unsafe_get h.time c);
      Array.unsafe_set h.ev i (Array.unsafe_get h.ev c);
      sift_down h c
    end

  (* Removes the earliest event of a non-empty heap; its time is
     [time.(0)], read before the call. *)
  let[@inline] take h =
    let e = Array.unsafe_get h.ev 0 in
    let n = h.len - 1 in
    h.len <- n;
    if n > 0 then sift_down h 0;
    e
end

(* A FIFO of request ids in a fixed ring of [n] slots.  An id waits in
   each queue at most once at a time (it is queued again only after its
   token was injected or completed), so [n] slots always suffice and the
   ring never grows.  The wrap is a compare, not a [mod]. *)
module Ring = struct
  type t = { ids : int array; mutable head : int; mutable len : int }

  (* The constructor allocates by nature, once per run. *)
  let create n = { ids = Array.make (max 1 n) 0; head = 0; len = 0 }
  [@@hnlpu.lint_ignore "ALLOC-HOT"]

  let[@inline] is_empty q = q.len = 0

  let[@inline] push q id =
    let i = q.head + q.len in
    let cap = Array.length q.ids in
    q.ids.(if i >= cap then i - cap else i) <- id;
    q.len <- q.len + 1

  let[@inline] pop q =
    let id = q.ids.(q.head) in
    let h = q.head + 1 in
    q.head <- (if h = Array.length q.ids then 0 else h);
    q.len <- q.len - 1;
    id
end

(* Simulation clock state.  All fields are float, so the record is flat
   (unboxed storage) and the per-event stores allocate nothing.  [now]
   is how the event time reaches the handlers below: a float argument
   to a closure is boxed at every call, a store into this record is
   flat. *)
type clock = {
  mutable now : float;  (** Time of the event in hand. *)
  mutable occupancy : float;
  mutable makespan : float;
  mutable next_inject : float;
  mutable woken_for : float;  (** Time of the last pipeline wakeup pushed. *)
}

let fresh_clock () =
  {
    now = 0.0;
    occupancy = 0.0;
    makespan = 0.0;
    next_inject = 0.0;
    woken_for = neg_infinity;
  }

(* Slot failures sorted by time, with the cumulative slots lost through
   each step.  Equal times form a tie group whose last step carries the
   whole group's loss, so the count at the last step at or before [now]
   is what a fold over the unsorted list gives. *)
let failure_steps failures =
  let a = Array.of_list failures in
  Array.sort (fun (t1, _) (t2, _) -> Float.compare t1 t2) a;
  let times = Float.Array.init (Array.length a) (fun i -> fst a.(i)) in
  let lost = Array.make (Array.length a) 0 in
  let acc = ref 0 in
  Array.iteri
    (fun i (_, k) ->
      acc := !acc + k;
      lost.(i) <- !acc)
    a;
  (times, lost)

let capacity_profile ~slots failures =
  let times, lost = failure_steps failures in
  let n = Float.Array.length times in
  fun now ->
    if n = 0 || now < Float.Array.get times 0 then slots
    else begin
      (* Rightmost step with time <= now. *)
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if Float.Array.get times mid <= now then lo := mid else hi := mid - 1
      done;
      max 0 (slots - lost.(!lo))
    end

(* Exponent [k] of the smallest context bucket [2048 * 2^k] covering
   [position]. *)
let rec bucket_exp b k position =
  if b >= position then k else bucket_exp (2 * b) (k + 1) position

let simulate ?(context = 2048) ?(context_aware = false) ?(slot_failures = [])
    ?obs config requests =
  let latency = Perf.token_latency_cached config ~context in
  let slots = Perf.pipeline_slots config in
  List.iter
    (fun (t, n) ->
      (* [not (t >= 0.0)] also rejects a NaN time, which no cursor
         position would ever pass. *)
      if not (t >= 0.0) || n < 0 then invalid_arg "Scheduler.simulate: bad failure")
    slot_failures;
  let fail_times, fail_lost = failure_steps slot_failures in
  let nfail = Float.Array.length fail_times in
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
  (* The heap's peak: every arrival, every failure wakeup, one token per
     slot in flight and at most two pipeline wakeups (a third would need
     an injection at or after the second's time, while the first, which
     is earlier, is still pending). *)
  let events = Events.create (n + nfail + slots + 2) in
  Array.iteri
    (fun id r ->
      if r.arrival_s < 0.0 || r.prefill_tokens < 1 || r.decode_tokens < 1 then
        invalid_arg "Scheduler.simulate: malformed request";
      prefill_remaining.(id) <- r.prefill_tokens;
      decode_remaining.(id) <- r.decode_tokens;
      Events.push events r.arrival_s ((3 * id) + ev_arrival))
    reqs;
  List.iter (fun (t, _) -> Events.push events t wakeup) slot_failures;
  (* Token latency by bucket exponent.  Context-aware latency is bucketed
     at powers of two from 2048; a sequence's position runs up to its
     prefill + decode tokens, so every bucket below the longest one is
     reached.  Otherwise the one entry is the fixed operating point. *)
  let bucket_latency =
    if not context_aware then Float.Array.make 1 latency
    else begin
      let longest =
        Array.fold_left
          (fun m r -> max m (r.prefill_tokens + r.decode_tokens))
          0 reqs
      in
      Float.Array.init
        (bucket_exp 2048 0 longest + 1)
        (fun k -> Perf.token_latency_cached config ~context:(2048 lsl k))
    end
  in
  let decode_queue = Ring.create n in
  let prefill_queue = Ring.create n in
  let busy = ref 0 in
  (* Surviving slots, and the first failure step not yet applied: event
     times never decrease, so the cursor only moves forward. *)
  let capacity = ref slots and next_fail = ref 0 in
  let completed = ref [] in
  let tokens = ref 0 and decode_tokens_out = ref 0 in
  let clock = fresh_clock () in
  (* Counter-series samples, emitted only on value changes so the timeline
     stays readable; everything below is skipped when [obs] is absent. *)
  let last_queue = ref (-1) and last_busy = ref (-1) in
  let sample_gauges o =
    let module Sink = Hnlpu_obs.Sink in
    let now = clock.now in
    let track = obs_track ~thread:"load" in
    let q = prefill_queue.Ring.len + decode_queue.Ring.len in
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
  let record_completion o id =
    let module Sink = Hnlpu_obs.Sink in
    let module Event = Hnlpu_obs.Event in
    let m = Sink.metrics o in
    let r = reqs.(id) in
    let arrival = r.arrival_s in
    let finish = clock.now in
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
  let try_inject () =
    let now = clock.now in
    while
      !next_fail < nfail && Float.Array.unsafe_get fail_times !next_fail <= now
    do
      capacity := max 0 (slots - fail_lost.(!next_fail));
      incr next_fail
    done;
    injecting := true;
    while
      !injecting
      && !busy < !capacity
      && not (Ring.is_empty decode_queue && Ring.is_empty prefill_queue)
    do
      if clock.next_inject > now then begin
        (* Pipeline entry busy: leave the queues untouched — popping the
           head and re-pushing it would rotate FIFO order on every
           stalled injection — and wake up at the slot time.  One pending
           wakeup per slot time: [next_inject] only grows, so a second
           one at the same time would find the entry already taken. *)
        if clock.woken_for <> clock.next_inject then begin
          Events.push events clock.next_inject wakeup;
          clock.woken_for <- clock.next_inject
        end;
        injecting := false
      end
      else begin
        let from_decode = not (Ring.is_empty decode_queue) in
        let id =
          if from_decode then Ring.pop decode_queue else Ring.pop prefill_queue
        in
        if is_unset (Float.Array.get injected_first id) then
          Float.Array.set injected_first id now;
        if not from_decode then begin
          prefill_remaining.(id) <- prefill_remaining.(id) - 1;
          prefill_inflight.(id) <- prefill_inflight.(id) + 1;
          (* More prefill tokens of this sequence stay in the queue. *)
          if prefill_remaining.(id) > 0 then Ring.push prefill_queue id
        end;
        incr busy;
        clock.next_inject <- now +. ii;
        let p = position.(id) + 1 in
        position.(id) <- p;
        let k = if context_aware then bucket_exp 2048 0 p else 0 in
        Events.push events
          (now +. Float.Array.get bucket_latency k)
          ((3 * id) + if from_decode then ev_decode else ev_prefill)
      end
    done
  in
  while events.Events.len > 0 do
    let t = Float.Array.unsafe_get events.Events.time 0 in
    let ev = Events.take events in
    clock.occupancy <-
      clock.occupancy +. (float_of_int !busy *. (t -. clock.now));
    clock.now <- t;
    if ev = wakeup then try_inject ()
    else begin
      let id = ev / 3 and kind = ev mod 3 in
      if kind = ev_arrival then Ring.push prefill_queue id
      else begin
        decr busy;
        incr tokens;
        clock.makespan <- t;
        if kind = ev_prefill then begin
          prefill_inflight.(id) <- prefill_inflight.(id) - 1;
          if prefill_remaining.(id) = 0 && prefill_inflight.(id) = 0 then begin
            Float.Array.set prefill_done id t;
            Ring.push decode_queue id
          end
        end
        else begin
          incr decode_tokens_out;
          if is_unset (Float.Array.get first_token id) then
            Float.Array.set first_token id t;
          decode_remaining.(id) <- decode_remaining.(id) - 1;
          if decode_remaining.(id) > 0 then Ring.push decode_queue id
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
            match obs with None -> () | Some o -> record_completion o id
          end
        end
      end;
      try_inject ()
    end;
    match obs with None -> () | Some o -> sample_gauges o
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
