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

let saturated_throughput ?(context = 2048) config =
  Perf.throughput_tokens_per_s config ~context

let obs_track = Hnlpu_obs.Event.track ~process:"scheduler"

(* One source of the event loop: a FIFO of events, pushed in time order,
   in a fixed ring.  Times sit in a [Float.Array] and events are immediate
   ints, so no store goes through [caml_modify]; [push] is inlined, so
   the time it takes crosses no call boxed.  Nothing grows: [simulate]
   states each stream's bound, and a push past it raises. *)
module Stream = struct
  type t = {
    time : Float.Array.t;
    ev : int array;
    mutable head : int;
    mutable len : int;
  }

  (* The constructor allocates by nature, once per run. *)
  let create cap =
    { time = Float.Array.make cap 0.0; ev = Array.make cap 0; head = 0; len = 0 }
  [@@hnlpu.lint_ignore "ALLOC-HOT"]

  let[@inline] push q t e =
    let cap = Array.length q.ev in
    if q.len = cap then invalid_arg "Scheduler.Stream.push: full";
    let i = q.head + q.len in
    let i = if i >= cap then i - cap else i in
    Float.Array.unsafe_set q.time i t;
    Array.unsafe_set q.ev i e;
    q.len <- q.len + 1

  (* Removes the head of a non-empty stream; its time is
     [time.(head)], read before the call. *)
  let[@inline] take q =
    let e = Array.unsafe_get q.ev q.head in
    let h = q.head + 1 in
    q.head <- (if h = Array.length q.ev then 0 else h);
    q.len <- q.len - 1;
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
  mutable next : float;  (** Earliest head among the merged sources. *)
  mutable occupancy : float;
  mutable makespan : float;
  mutable next_inject : float;
  mutable woken_for : float;  (** Time of the last pipeline wakeup pushed. *)
  (* The load gauges' last values (NaN before the first event) and the
     times they changed to them. *)
  mutable queue_depth : float;
  mutable queue_stamp : float;
  mutable busy_slots : float;
  mutable busy_stamp : float;
}

let fresh_clock () =
  {
    now = 0.0;
    next = 0.0;
    occupancy = 0.0;
    makespan = 0.0;
    next_inject = 0.0;
    woken_for = neg_infinity;
    queue_depth = Float.nan;
    queue_stamp = 0.0;
    busy_slots = Float.nan;
    busy_stamp = 0.0;
  }

(* Slot failures sorted by time, with the cumulative slots lost through
   each step.  Equal times form a tie group whose last step carries the
   whole group's loss, so the count at the last step at or before [now]
   is what a fold over the unsorted list gives. *)
let failure_steps failures =
  let a = Array.of_list failures in
  Array.sort (fun (t1, _) (t2, _) -> Float.compare t1 t2) a;
  let acc = ref 0 in
  ( Float.Array.init (Array.length a) (fun i -> fst a.(i)),
    Array.map (fun (_, k) -> acc := !acc + k; !acc) a )

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
  (* The requests in (arrival time, list position) order.  A request's
     id below is its rank in that order, so its list position when the
     list is sorted.  A sorted list skips the sort, whose merges allocate
     ~2.5 words per request. *)
  let reqs = Array.of_list requests in
  let n = Array.length reqs in
  let rec sorted i =
    i >= n || (reqs.(i - 1).arrival_s <= reqs.(i).arrival_s && sorted (i + 1))
  in
  if not (sorted 1) then
    Array.stable_sort (fun a b -> Float.compare a.arrival_s b.arrival_s) reqs;
  (* Per-sequence state, indexed by request id. *)
  let prefill_remaining = Array.make n 0 in
  let prefill_inflight = Array.make n 0 in
  let decode_remaining = Array.make n 0 in
  let injected_first = Float.Array.make n Float.nan in
  let first_token = Float.Array.make n Float.nan in  (* First decode completion. *)
  let prefill_done = Float.Array.make n Float.nan in  (* Last prefill completion. *)
  Array.iteri
    (fun id r ->
      (* A NaN arrival would never win the merge below. *)
      if not (r.arrival_s >= 0.0) || r.prefill_tokens < 1 || r.decode_tokens < 1
      then invalid_arg "Scheduler.simulate: malformed request";
      prefill_remaining.(id) <- r.prefill_tokens;
      decode_remaining.(id) <- r.decode_tokens)
    reqs;
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
  let buckets = Float.Array.length bucket_latency in
  (* The event sources, merged at their heads; on equal times the lower
     index goes first.
     - One completion stream per latency bucket, lower buckets first, so
       a freed slot goes to the decode queue before anything else at its
       time; [2 * id] is a prefill token, [2 * id + 1] a decode token.
       A bucket's tokens share a latency and enter in time order, so they
       leave in it.  At most [slots] tokens are in flight.
     - At most two pipeline wakeups: a third would need an injection at
       or after the second's time while the earlier first is pending.
       [next_inject] only grows, so they are in time order.
     - Last, the arrivals, read from [reqs] by the cursor [arrived]. *)
  let wakeups = Stream.create 2 in
  let sources =
    Array.append (Array.init buckets (fun _ -> Stream.create slots)) [| wakeups |]
  in
  let arrival_src = Array.length sources and arrived = ref 0 in
  let decode_queue = Ring.create n in
  let prefill_queue = Ring.create n in
  let busy = ref 0 in
  (* Surviving slots, and the first failure step not yet applied: event
     times never decrease, so the cursor only moves forward.  A failure
     step is no event of its own: it only lowers capacity, so it can
     admit nothing, and the next event at or after its time applies it
     before it injects. *)
  let capacity = ref slots and next_fail = ref 0 in
  let completed = ref [] in
  let tokens = ref 0 and decode_tokens_out = ref 0 in
  let clock = fresh_clock () in
  (* Load gauges, sampled only on value changes so the timeline stays
     readable; everything below is skipped when [obs] is absent.  They
     reach the registry once, at run end, so a counters-only sink, which
     keeps no timeline, costs no call and no boxed float per event. *)
  let timeline = match obs with Some o -> Hnlpu_obs.Sink.events_enabled o | None -> false in
  let load_track = obs_track ~thread:"load" in
  let sample_gauges o =
    let q = float_of_int (prefill_queue.Ring.len + decode_queue.Ring.len) in
    if q <> clock.queue_depth then begin
      clock.queue_depth <- q;
      clock.queue_stamp <- clock.now;
      if timeline then
        Hnlpu_obs.Sink.sample o ~track:load_track ~name:"scheduler/queue_depth"
          ~ts_s:clock.now clock.queue_depth
    end;
    let b = float_of_int !busy in
    if b <> clock.busy_slots then begin
      clock.busy_slots <- b;
      clock.busy_stamp <- clock.now;
      if timeline then
        Hnlpu_obs.Sink.sample o ~track:load_track ~name:"scheduler/busy_slots"
          ~ts_s:clock.now clock.busy_slots
    end
  in
  (* The latency sketches, fetched at the first completion so that a run
     completing nothing registers none, and the cell that hands them
     their samples unboxed. *)
  let hists = ref [||] and samples = Float.Array.make 3 0.0 in
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
    if timeline then begin
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
        ~ts_s:first_token
    end;
    Hnlpu_obs.Metrics.incr m "scheduler/requests_completed";
    if Array.length !hists = 0 then
      hists :=
        Array.map (Hnlpu_obs.Metrics.hist m)
          [| "scheduler/ttft_s"; "scheduler/e2e_s"; "scheduler/queue_wait_s" |];
    Float.Array.set samples 0 (first_token -. arrival);
    Float.Array.set samples 1 (finish -. arrival);
    Float.Array.set samples 2 (injected -. arrival);
    for i = 0 to 2 do
      Hnlpu_obs.Sketch.observe_cell !hists.(i) samples i
    done
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
          Stream.push wakeups clock.next_inject 0;
          clock.woken_for <- clock.next_inject
        end;
        injecting := false
      end
      else begin
        let from_decode = not (Ring.is_empty decode_queue) in
        let id =
          if from_decode then Ring.pop decode_queue else Ring.pop prefill_queue
        in
        if Float.is_nan (Float.Array.get injected_first id) then
          Float.Array.set injected_first id now;
        if not from_decode then begin
          prefill_remaining.(id) <- prefill_remaining.(id) - 1;
          prefill_inflight.(id) <- prefill_inflight.(id) + 1;
          (* More prefill tokens of this sequence stay in the queue. *)
          if prefill_remaining.(id) > 0 then Ring.push prefill_queue id
        end;
        incr busy;
        clock.next_inject <- now +. ii;
        (* The sequence's position with this token: all its prefill
           tokens enter before its first decode token. *)
        let k =
          if not context_aware then 0
          else if from_decode then
            bucket_exp 2048 0
              (reqs.(id).prefill_tokens + reqs.(id).decode_tokens
             - decode_remaining.(id) + 1)
          else bucket_exp 2048 0 (reqs.(id).prefill_tokens - prefill_remaining.(id))
        in
        Stream.push sources.(k)
          (now +. Float.Array.get bucket_latency k)
          ((2 * id) + if from_decode then 1 else 0)
      end
    done
  in
  let nsources = Array.length sources in
  let src = ref 0 in
  while !src >= 0 do
    (* The source whose head is earliest, the lowest index on a tie. *)
    src := -1;
    for s = 0 to nsources - 1 do
      let q = Array.unsafe_get sources s in
      if q.Stream.len > 0 then begin
        let t = Float.Array.unsafe_get q.Stream.time q.Stream.head in
        if !src < 0 || t < clock.next then begin
          clock.next <- t;
          src := s
        end
      end
    done;
    if !arrived < n then begin
      let t = reqs.(!arrived).arrival_s in
      if !src < 0 || t < clock.next then begin
        clock.next <- t;
        src := arrival_src
      end
    end;
    if !src >= 0 then begin
      let t = clock.next in
      clock.occupancy <-
        clock.occupancy +. (float_of_int !busy *. (t -. clock.now));
      clock.now <- t;
      if !src = arrival_src then begin
        Ring.push prefill_queue !arrived;
        incr arrived
      end
      else begin
        let ev = Stream.take (Array.unsafe_get sources !src) in
        (* A wakeup carries nothing but its time. *)
        if !src < buckets then begin
          let id = ev lsr 1 in
          decr busy;
          incr tokens;
          clock.makespan <- t;
          if ev land 1 = 0 then begin
            prefill_inflight.(id) <- prefill_inflight.(id) - 1;
            if prefill_remaining.(id) = 0 && prefill_inflight.(id) = 0 then begin
              Float.Array.set prefill_done id t;
              Ring.push decode_queue id
            end
          end
          else begin
            incr decode_tokens_out;
            if Float.is_nan (Float.Array.get first_token id) then
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
        end
      end;
      try_inject ();
      match obs with None -> () | Some o -> sample_gauges o
    end
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
    (* What writing every change into the registry leaves there.  The
       first event sets both. *)
    if not (Float.is_nan clock.queue_depth) then begin
      Hnlpu_obs.Metrics.set_stamped m ~stamp:clock.queue_stamp
        "scheduler/queue_depth" clock.queue_depth;
      Hnlpu_obs.Metrics.set_stamped m ~stamp:clock.busy_stamp
        "scheduler/busy_slots" clock.busy_slots
    end;
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
