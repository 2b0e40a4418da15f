(* Fleet-scale cluster simulator.  See the .mli for the model and the
   sharding/determinism contract.

   Layout notes, because this is an ALLOC-HOT hot path at 10⁶–10⁷
   requests:

   - all per-node state is flat arrays indexed by shard-local node id
     (float stores into [float array] are unboxed writes);
   - the per-shard mutable float scalars live in the all-float record
     [sfl] (flat representation, no boxing on store);
   - the least-loaded structure is an {e indexed} binary min-heap: int
     arrays [heap] (slot -> node) and [pos] (node -> slot), plus a
     parallel [key] float array holding each slot's [free_at], so the
     sifts compare keys in slot order without the node -> [free_at]
     indirection.  Routing is O(log n) and re-keying a node after
     assignment is a sift, not a rebuild; ties break toward the lower
     node id, reproducing the historical first-minimum scan exactly;
   - hot/idle power tracking uses a lazy-deletion deadline heap: one
     entry per hot {e period} (re-pushed on pop while still busy), not
     per request.  Its earliest deadline is mirrored in [sfl.idle_next],
     refreshed on push and take only, so the per-request drain check is
     a flat float compare rather than a [Heap.min_priority] call whose
     float return is boxed;
   - the three latency samples of a request reach their sketches through
     the [samples] cell and [Sketch.observe_cell]: a float argument to
     [Sketch.observe] would be boxed at each call;
   - everything request-rate-proportional lives in [module Hot], which
     Lint_config registers as an ALLOC-HOT Leaf (any allocation is an
     error); [run_shard] is the Driver around it. *)

open Hnlpu_util
open Hnlpu_obs
module Par = Hnlpu_par.Par

type policy = Round_robin | Least_loaded | Session_affinity | Power_aware

let policy_name = function
  | Round_robin -> "rr"
  | Least_loaded -> "ll"
  | Session_affinity -> "sa"
  | Power_aware -> "pa"

let policy_of_string s =
  match String.lowercase_ascii s with
  | "rr" | "round_robin" | "round-robin" -> Some Round_robin
  | "ll" | "least_loaded" | "least-loaded" -> Some Least_loaded
  | "sa" | "session_affinity" | "session-affinity" -> Some Session_affinity
  | "pa" | "power_aware" | "power-aware" -> Some Power_aware
  | _ -> None

type node_event_kind = Fail | Drain | Recover

type node_event = { at_s : float; node : int; kind : node_event_kind }

let fail_recover_schedule ~nodes ~fraction ~at_s ~recover_after_s =
  if nodes < 1 then invalid_arg "Fleet.fail_recover_schedule: nodes < 1";
  if not (fraction > 0.0 && fraction <= 1.0) then
    invalid_arg "Fleet.fail_recover_schedule: fraction outside (0, 1]";
  if not (recover_after_s > 0.0) then
    invalid_arg "Fleet.fail_recover_schedule: recover_after_s <= 0";
  let step = max 1 (int_of_float (1.0 /. fraction)) in
  let count = (nodes + step - 1) / step in
  Array.init (2 * count) (fun i ->
      if i < count then { at_s; node = i * step; kind = Fail }
      else
        {
          at_s = at_s +. recover_after_s;
          node = (i - count) * step;
          kind = Recover;
        })

type config = {
  nodes : int;
  shards : int;
  rack_size : int;
  rack_power_cap : int;
  idle_after_s : float;
  prefill_tokens_per_s : float;
  decode_tokens_per_s : float;
  decode_token_latency_s : float;
}

let validate_config c =
  if c.nodes < 1 then invalid_arg "Fleet: nodes < 1";
  if c.shards < 1 || c.shards > c.nodes then
    invalid_arg "Fleet: shards outside [1, nodes]";
  if c.rack_size < 1 then invalid_arg "Fleet: rack_size < 1";
  if c.rack_power_cap < 1 then invalid_arg "Fleet: rack_power_cap < 1";
  if not (c.idle_after_s >= 0.0) then invalid_arg "Fleet: idle_after_s < 0";
  if not (c.prefill_tokens_per_s > 0.0) then
    invalid_arg "Fleet: prefill_tokens_per_s <= 0";
  if not (c.decode_tokens_per_s > 0.0) then
    invalid_arg "Fleet: decode_tokens_per_s <= 0";
  if not (c.decode_token_latency_s > 0.0) then
    invalid_arg "Fleet: decode_token_latency_s <= 0"

(* The decode rate is [Perf.throughput_tokens_per_s] from the one cached
   token latency, rather than a second, uncached latency evaluation. *)
let config_of_model ?(context = 2048) ?(shards = 8) ~nodes mconfig =
  let tok_lat = Perf.token_latency_cached mconfig ~context in
  {
    nodes;
    shards = min shards (max 1 nodes);
    rack_size = 16;
    rack_power_cap = 12;
    idle_after_s = 30.0;
    prefill_tokens_per_s =
      Perf.prefill_throughput_tokens_per_s mconfig ~chunk:8 ~context;
    decode_tokens_per_s = float_of_int (Perf.pipeline_slots mconfig) /. tok_lat;
    decode_token_latency_s = tok_lat;
  }

let capacity_req_per_s cfg (spec : Arrivals.spec) =
  validate_config cfg;
  Arrivals.validate spec;
  let p = Arrivals.mean_tokens spec.Arrivals.prefill in
  let d = Arrivals.mean_tokens spec.Arrivals.decode in
  let service_s =
    (p /. cfg.prefill_tokens_per_s) +. (d /. cfg.decode_tokens_per_s)
  in
  float cfg.nodes /. service_s

(* SplitMix64-style finalizer (62-bit-safe multipliers): users with
   adjacent ids must land on unrelated home nodes. *)
let hash_user u =
  let h = u lxor (u lsr 33) in
  let h = h * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 29) in
  let h = h * 0x1DA4B32DD35C9D1 in
  let h = h lxor (h lsr 32) in
  h land max_int

let home_node cfg user = hash_user user mod cfg.nodes

(* Shard ranges are [k*nodes/shards, (k+1)*nodes/shards).  The
   proportional guess [g*shards/nodes] is exact or one low (floor
   arithmetic), never high — one upward correction suffices.  Setup
   only: it sizes each shard's Session_affinity user pool in [run]. *)
let shard_of_node g ~nodes ~shards =
  let k = g * shards / nodes in
  let k = if k >= shards then shards - 1 else k in
  if k + 1 < shards && g >= (k + 1) * nodes / shards then k + 1 else k

(* Per-shard mutable float scalars, all-float for flat stores.  [now_s]
   is how simulated time reaches the [Hot] helpers: a float argument to
   a non-inlined call is boxed at every call site, a store into an
   all-float record is flat. *)
type sfl = {
  mutable now_s : float;
  mutable idle_next : float;  (* earliest [idle] deadline; infinity when empty *)
  mutable busy_s : float;
  mutable makespan_s : float;
  mutable tokens : float;
  mutable redispatched : float;
}

type shard_state = {
  lo : int;  (* first global node id of the shard *)
  n : int;  (* nodes owned by the shard *)
  total_nodes : int;
  users : int array;  (* Session_affinity: cursor user -> global user id *)
  rack_size : int;
  rack_cap : int;
  idle_after_s : float;
  prefill_rate : float;
  decode_rate : float;
  tok_lat : float;
  free_at : float array;  (* next-free time per node *)
  node_tokens : float array;
  node_requests : int array;
  status : int array;  (* 0 active / 1 drained / 2 failed *)
  heap : int array;  (* heap slot -> node id *)
  key : float array;  (* heap slot -> free_at of its node *)
  pos : int array;  (* node id -> heap slot, -1 when absent *)
  mutable heap_len : int;
  hot : int array;  (* 0 cold / 1 hot *)
  rack_hot : int array;
  idle : int Heap.t;  (* lazy-deletion cool-down deadlines *)
  scratch : int array;  (* Power_aware pop stash *)
  mutable scratch_len : int;
  mutable peak_rack_hot : int;
  mutable overrides : int;
  mutable rr : int;
  mutable dispatched : int;
  mutable dropped : int;
  fl : sfl;
  samples : Float.Array.t;  (* ttft, e2e, queue of the request in hand *)
  ttft : Sketch.t;
  e2e : Sketch.t;
  queue : Sketch.t;
}

(* Everything request-rate-proportional: registered as an ALLOC-HOT Leaf
   (Lint_config), so any allocation below is a lint error. *)
module Hot = struct
  (* Slots are ordered lexicographically by (key, id): among equally-free
     nodes the lower id wins, matching the historical first-minimum
     scan.  A total order, so the minimum is the same node however the
     heap happens to be arranged.  The sifts move a hole rather than
     swapping: the moving node's own key is [free_at.(i)], every other
     comparison reads [key] in slot order. *)
  let[@inline] before st i s =
    let k = st.free_at.(i) and ks = st.key.(s) in
    k < ks || (k = ks && i < st.heap.(s))

  let[@inline] place st p i =
    st.heap.(p) <- i;
    st.key.(p) <- st.free_at.(i);
    st.pos.(i) <- p

  (* Slot [src]'s node moves into slot [dst]. *)
  let[@inline] move st src dst =
    let j = st.heap.(src) in
    st.heap.(dst) <- j;
    st.key.(dst) <- st.key.(src);
    st.pos.(j) <- dst

  (* Settles node [i] upward from the hole at slot [p]. *)
  let rec sift_up st i p =
    if p = 0 then place st p i
    else begin
      let parent = (p - 1) / 2 in
      if before st i parent then begin
        move st parent p;
        sift_up st i parent
      end
      else place st p i
    end

  (* Settles node [i] downward from the hole at slot [p]. *)
  let rec sift_down st i p =
    let l = (2 * p) + 1 in
    if l >= st.heap_len then place st p i
    else begin
      let r = l + 1 in
      let c =
        if r < st.heap_len
           && (st.key.(r) < st.key.(l)
              || (st.key.(r) = st.key.(l) && st.heap.(r) < st.heap.(l)))
        then r
        else l
      in
      if before st i c then place st p i
      else begin
        move st c p;
        sift_down st i c
      end
    end

  let heap_add st i =
    let p = st.heap_len in
    st.heap_len <- p + 1;
    sift_up st i p

  let heap_remove st i =
    let p = st.pos.(i) in
    if p >= 0 then begin
      let last = st.heap_len - 1 in
      st.heap_len <- last;
      st.pos.(i) <- -1;
      if p <> last then begin
        let j = st.heap.(last) in
        if p > 0 && before st j ((p - 1) / 2) then sift_up st j p
        else sift_down st j p
      end
    end

  (* [free_at] only ever grows, so a re-key is a pure sift-down. *)
  let heap_update st i =
    let p = st.pos.(i) in
    if p >= 0 then sift_down st i p

  (* Inlined at both call sites, so the deadline never crosses a call. *)
  let[@inline] idle_push st i deadline =
    Heap.push st.idle ~priority:deadline i;
    if deadline < st.fl.idle_next then st.fl.idle_next <- deadline

  (* The cool-down deadline reads the node's just-updated [free_at]
     rather than taking the finish time as a (boxed) float argument. *)
  let mark_hot st i =
    if st.hot.(i) = 0 then begin
      st.hot.(i) <- 1;
      let r = i / st.rack_size in
      let h = st.rack_hot.(r) + 1 in
      st.rack_hot.(r) <- h;
      if h > st.peak_rack_hot then st.peak_rack_hot <- h;
      idle_push st i (st.free_at.(i) +. st.idle_after_s)
    end

  (* Retire cool-down deadlines that have passed; an entry whose node
     got more work since is re-pushed at its new deadline (lazy
     deletion, one live entry per hot period). *)
  let rec drain_idle st =
    if st.fl.idle_next <= st.fl.now_s then begin
      let i = Heap.take_min st.idle in
      st.fl.idle_next <-
        (if Heap.is_empty st.idle then infinity else Heap.min_priority st.idle);
      if st.hot.(i) = 1 then begin
        let deadline = st.free_at.(i) +. st.idle_after_s in
        if deadline <= st.fl.now_s then begin
          st.hot.(i) <- 0;
          st.rack_hot.(i / st.rack_size) <- st.rack_hot.(i / st.rack_size) - 1
        end
        else idle_push st i deadline
      end;
      drain_idle st
    end

  (* First active node at/after local index [l], wrapping; -1 if none. *)
  let rec probe_active st l tries =
    if tries = 0 then -1
    else if st.status.(l) = 0 then l
    else probe_active st (if l + 1 = st.n then 0 else l + 1) (tries - 1)

  let route_rr st =
    let start = st.rr mod st.n in
    st.rr <- st.rr + 1;
    probe_active st start st.n

  let route_ll st = if st.heap_len = 0 then -1 else st.heap.(0)

  (* [user] indexes the shard's own cursor, whose pool is [st.users]. *)
  let route_sa st user =
    let home = hash_user (Array.unsafe_get st.users user) mod st.total_nodes in
    probe_active st (home - st.lo) st.n

  (* Pop heap minima that would power up a capped rack, stashing them
     for restoration; accept the first node that is already hot or in
     an under-cap rack. *)
  let rec pa_pop st =
    if st.heap_len = 0 then -1
    else begin
      let i = st.heap.(0) in
      if st.hot.(i) = 1 || st.rack_hot.(i / st.rack_size) < st.rack_cap then i
      else begin
        heap_remove st i;
        st.scratch.(st.scratch_len) <- i;
        st.scratch_len <- st.scratch_len + 1;
        pa_pop st
      end
    end

  let rec pa_restore st k =
    if k < st.scratch_len then begin
      heap_add st st.scratch.(k);
      pa_restore st (k + 1)
    end

  let route_pa st =
    st.scratch_len <- 0;
    let choice = pa_pop st in
    let all_capped = choice < 0 && st.scratch_len > 0 in
    pa_restore st 0;
    st.scratch_len <- 0;
    if choice >= 0 then choice
    else if all_capped then begin
      (* Every active node is cold inside a capped rack: power up past
         the cap rather than drop the request, and count the override. *)
      st.overrides <- st.overrides + 1;
      route_ll st
    end
    else -1

  let route st policy user =
    match policy with
    | Round_robin -> route_rr st
    | Least_loaded -> route_ll st
    | Session_affinity -> route_sa st user
    | Power_aware -> route_pa st

  let assign st p d idx =
    let now = st.fl.now_s in
    let pf = float p and df = float d in
    let prefill_s = pf /. st.prefill_rate in
    let free = st.free_at.(idx) in
    let start = if free > now then free else now in
    let queue = start -. now in
    let ttft = queue +. prefill_s +. st.tok_lat in
    let e2e = queue +. prefill_s +. (df *. st.tok_lat) in
    let service_s = prefill_s +. (df /. st.decode_rate) in
    let finish = start +. service_s in
    st.free_at.(idx) <- finish;
    heap_update st idx;
    mark_hot st idx;
    st.node_tokens.(idx) <- st.node_tokens.(idx) +. pf +. df;
    st.node_requests.(idx) <- st.node_requests.(idx) + 1;
    st.dispatched <- st.dispatched + 1;
    st.fl.busy_s <- st.fl.busy_s +. service_s;
    st.fl.tokens <- st.fl.tokens +. pf +. df;
    let completion = now +. e2e in
    let span = if finish > completion then finish else completion in
    if span > st.fl.makespan_s then st.fl.makespan_s <- span;
    Float.Array.set st.samples 0 ttft;
    Float.Array.set st.samples 1 e2e;
    Float.Array.set st.samples 2 queue;
    Sketch.observe_cell st.ttft st.samples 0;
    Sketch.observe_cell st.e2e st.samples 1;
    Sketch.observe_cell st.queue st.samples 2
end

(* Failed nodes re-dispatch through the policy; for session affinity the
   natural rebind is the next node after the dead home. *)
let route_redispatch st policy failed_local =
  match policy with
  | Session_affinity ->
      Hot.probe_active st
        (if failed_local + 1 = st.n then 0 else failed_local + 1)
        st.n
  | Round_robin | Least_loaded | Power_aware -> Hot.route st policy 0

let apply_event st policy ev =
  let g = ev.node in
  if g >= st.lo && g < st.lo + st.n then begin
    let i = g - st.lo in
    match ev.kind with
    | Drain -> if st.status.(i) = 0 then begin
        st.status.(i) <- 1;
        Hot.heap_remove st i
      end
    | Fail ->
        if st.status.(i) <> 2 then begin
          if st.status.(i) = 0 then Hot.heap_remove st i;
          st.status.(i) <- 2;
          let now = ev.at_s in
          st.fl.now_s <- now;
          Hot.drain_idle st;
          let backlog_s = st.free_at.(i) -. now in
          st.free_at.(i) <- now;
          if backlog_s > 0.0 then begin
            let tgt = route_redispatch st policy i in
            if tgt >= 0 then begin
              (* Move the unfinished capacity-seconds; token attribution
                 follows at the decode rate (a lower bound on the mix's
                 token density, so a node's ledger can't go negative). *)
              let moved = backlog_s *. st.decode_rate in
              st.fl.redispatched <- st.fl.redispatched +. moved;
              st.node_tokens.(i) <- st.node_tokens.(i) -. moved;
              st.node_tokens.(tgt) <- st.node_tokens.(tgt) +. moved;
              let free = st.free_at.(tgt) in
              let start = if free > now then free else now in
              let finish = start +. backlog_s in
              st.free_at.(tgt) <- finish;
              Hot.heap_update st tgt;
              Hot.mark_hot st tgt;
              if finish > st.fl.makespan_s then st.fl.makespan_s <- finish
            end
            (* No eligible node: the backlog dies with its node and
               stays attributed to it. *)
          end
        end
    | Recover ->
        if st.status.(i) <> 0 then begin
          st.status.(i) <- 0;
          if ev.at_s > st.free_at.(i) then st.free_at.(i) <- ev.at_s;
          Hot.heap_add st i
        end
  end

type shard_out = {
  o_lo : int;
  o_dispatched : int;
  o_dropped : int;
  o_tokens : float;
  o_redispatched : float;
  o_busy_s : float;
  o_makespan_s : float;
  o_peak_rack_hot : int;
  o_overrides : int;
  o_ttft : Sketch.t;
  o_e2e : Sketch.t;
  o_queue : Sketch.t;
  o_node_tokens : float array;
  o_node_requests : int array;
}

let shard_lo cfg shard = shard * cfg.nodes / cfg.shards

let make_state cfg shard ~users =
  let lo = shard_lo cfg shard in
  let n = shard_lo cfg (shard + 1) - lo in
  let racks = ((n - 1) / cfg.rack_size) + 1 in
  let st =
    {
      lo;
      n;
      total_nodes = cfg.nodes;
      users;
      rack_size = cfg.rack_size;
      rack_cap = cfg.rack_power_cap;
      idle_after_s = cfg.idle_after_s;
      prefill_rate = cfg.prefill_tokens_per_s;
      decode_rate = cfg.decode_tokens_per_s;
      tok_lat = cfg.decode_token_latency_s;
      free_at = Array.make n 0.0;
      node_tokens = Array.make n 0.0;
      node_requests = Array.make n 0;
      status = Array.make n 0;
      heap = Array.make n 0;
      key = Array.make n 0.0;
      pos = Array.make n (-1);
      heap_len = 0;
      hot = Array.make n 0;
      rack_hot = Array.make racks 0;
      idle = Heap.create ~dummy:(-1) ();
      scratch = Array.make n 0;
      scratch_len = 0;
      peak_rack_hot = 0;
      overrides = 0;
      rr = 0;
      dispatched = 0;
      dropped = 0;
      fl =
        {
          now_s = 0.0;
          idle_next = infinity;
          busy_s = 0.0;
          makespan_s = 0.0;
          tokens = 0.0;
          redispatched = 0.0;
        };
      samples = Float.Array.make 3 0.0;
      ttft = Sketch.create ();
      e2e = Sketch.create ();
      queue = Sketch.create ();
    }
  in
  (* All nodes start active with free_at 0 and ids ascending: the
     identity arrangement already satisfies the heap order. *)
  for i = 0 to n - 1 do
    st.heap.(i) <- i;
    st.pos.(i) <- i
  done;
  st.heap_len <- n;
  st

(* Session_affinity splits the user pool by home shard: the users whose
   [hash_user] home node lies in [lo, lo + n), ascending. *)
let home_users cfg total_users ~lo ~n =
  let homed u =
    let g = home_node cfg u in
    g >= lo && g < lo + n
  in
  let count = ref 0 in
  for u = 0 to total_users - 1 do
    if homed u then incr count
  done;
  let users = Array.make !count 0 in
  let k = ref 0 in
  for u = 0 to total_users - 1 do
    if homed u then begin
      users.(!k) <- u;
      incr k
    end
  done;
  users

(* One shard's pass over its own substream (ALLOC-HOT Driver: the
   arrays, sketches, user table and cursor above are setup; the request
   loop below must not allocate).  The shard draws exactly [count]
   requests, all of which it routes: a Poisson stream at [1/shards] of
   the rate (or, under Session_affinity, of its users' share of the
   rate) on stream [shard] of the seed. *)
let run_shard cfg spec policy events counts seed shard =
  let lo = shard_lo cfg shard in
  let n = shard_lo cfg (shard + 1) - lo in
  let users, share =
    match policy with
    | Session_affinity ->
        let u = home_users cfg spec.Arrivals.users ~lo ~n in
        (u, float (Array.length u) /. float spec.Arrivals.users)
    | Round_robin | Least_loaded | Power_aware -> ([||], 1.0 /. float cfg.shards)
  in
  let st = make_state cfg shard ~users in
  let count = counts.(shard) in
  let nev = Array.length events in
  let ep = ref 0 in
  if count > 0 then begin
    let sspec =
      Arrivals.with_mean_rate spec (Arrivals.mean_rate_per_s spec *. share)
    in
    let sspec =
      match policy with
      | Session_affinity -> { sspec with Arrivals.users = Array.length users }
      | Round_robin | Least_loaded | Power_aware -> sspec
    in
    let cur = Arrivals.create ~stream:shard ~seed sspec in
    (* Flat read cell: a per-request [Arrivals.arrival_s] accessor call
       would box its float return. *)
    let clk = Arrivals.clock cur in
    for _ = 1 to count do
      Arrivals.next cur;
      let now = clk.Arrivals.arrival_s in
      while !ep < nev && (Array.unsafe_get events !ep).at_s <= now do
        apply_event st policy (Array.unsafe_get events !ep);
        incr ep
      done;
      st.fl.now_s <- now;
      Hot.drain_idle st;
      let idx = Hot.route st policy (Arrivals.user cur) in
      if idx < 0 then st.dropped <- st.dropped + 1
      else
        Hot.assign st
          (Arrivals.prefill_tokens cur)
          (Arrivals.decode_tokens cur)
          idx
    done
  end;
  (* Events after the shard's last arrival still apply: a late [Fail]
     sheds its backlog however early the substream happened to stop. *)
  while !ep < nev do
    apply_event st policy (Array.unsafe_get events !ep);
    incr ep
  done;
  {
    o_lo = st.lo;
    o_dispatched = st.dispatched;
    o_dropped = st.dropped;
    o_tokens = st.fl.tokens;
    o_redispatched = st.fl.redispatched;
    o_busy_s = st.fl.busy_s;
    o_makespan_s = st.fl.makespan_s;
    o_peak_rack_hot = st.peak_rack_hot;
    o_overrides = st.overrides;
    o_ttft = st.ttft;
    o_e2e = st.e2e;
    o_queue = st.queue;
    o_node_tokens = st.node_tokens;
    o_node_requests = st.node_requests;
  }

type result = {
  r_nodes : int;
  r_shards : int;
  dispatched : int;
  dropped : int;
  total_tokens : float;
  redispatched_tokens : float;
  makespan_s : float;
  throughput_tokens_per_s : float;
  imbalance : float;
  mean_utilization : float;
  peak_rack_hot : int;
  power_cap_overrides : int;
  ttft : Sketch.t;
  e2e : Sketch.t;
  queue_wait : Sketch.t;
  per_node_tokens : float array;
  per_node_requests : int array;
}

let validate_events cfg events =
  let n = Array.length events in
  for i = 0 to n - 1 do
    let ev = events.(i) in
    if ev.node < 0 || ev.node >= cfg.nodes then
      invalid_arg "Fleet.run: event node out of range";
    if not (ev.at_s >= 0.0) then invalid_arg "Fleet.run: event time < 0";
    if i > 0 && ev.at_s < events.(i - 1).at_s then
      invalid_arg "Fleet.run: node_events not sorted by time"
  done

(* Split [requests] in proportion to [weights] by largest remainder, so
   the parts sum exactly; equal remainders favour the lower index. *)
let apportion requests weights =
  let total = Array.fold_left ( + ) 0 weights in
  let counts = Array.map (fun w -> requests * w / total) weights in
  let left = requests - Array.fold_left ( + ) 0 counts in
  let rem k = requests * weights.(k) mod total in
  let order = Array.init (Array.length weights) Fun.id in
  Array.stable_sort (fun a b -> compare (rem b) (rem a)) order;
  for i = 0 to left - 1 do
    counts.(order.(i)) <- counts.(order.(i)) + 1
  done;
  counts

(* Requests per shard: an even split, or under Session_affinity a split
   in proportion to the users homed in each shard. *)
let shard_requests cfg (spec : Arrivals.spec) policy requests =
  let weights =
    match policy with
    | Session_affinity ->
        let w = Array.make cfg.shards 0 in
        for u = 0 to spec.Arrivals.users - 1 do
          let k =
            shard_of_node (home_node cfg u) ~nodes:cfg.nodes ~shards:cfg.shards
          in
          w.(k) <- w.(k) + 1
        done;
        w
    | Round_robin | Least_loaded | Power_aware -> Array.make cfg.shards 1
  in
  apportion requests weights

(* Every aggregate an [?obs] sink asks for is already in the merged
   result, so the run writes its telemetry once, here, on the calling
   domain: the dispatch path never touches the registry.  Series for
   events that never happened (no dispatch, no drop) are not created. *)
let publish m r =
  if r.dispatched > 0 then begin
    Metrics.incr m ~by:(float r.dispatched) "fleet/requests";
    Sketch.merge_into ~into:(Metrics.hist m "fleet/ttft_s") r.ttft;
    Sketch.merge_into ~into:(Metrics.hist m "fleet/e2e_s") r.e2e;
    Sketch.merge_into ~into:(Metrics.hist m "fleet/queue_wait_s") r.queue_wait
  end;
  if r.dropped > 0 then Metrics.incr m ~by:(float r.dropped) "fleet/dropped";
  Metrics.incr m ~by:r.total_tokens "fleet/tokens";
  Metrics.incr m ~by:r.redispatched_tokens "fleet/redispatched_tokens";
  (* Stamp = value, so merging registries keeps the larger of each. *)
  Metrics.set_stamped m ~stamp:r.makespan_s "fleet/makespan_s" r.makespan_s;
  let peak = float r.peak_rack_hot in
  Metrics.set_stamped m ~stamp:peak "fleet/peak_rack_hot" peak

let run ?domains ?obs ?(node_events = [||]) ~policy ~requests ~seed cfg spec =
  validate_config cfg;
  if requests < 1 then invalid_arg "Fleet.run: requests < 1";
  validate_events cfg node_events;
  Arrivals.validate spec;
  let counts = shard_requests cfg spec policy requests in
  let outs =
    Par.parallel_init ?domains cfg.shards
      (run_shard cfg spec policy node_events counts seed)
  in
  (* Merge in shard-index order — the Par convention that makes float
     sums independent of the domain count. *)
  let per_node_tokens = Array.make cfg.nodes 0.0 in
  let per_node_requests = Array.make cfg.nodes 0 in
  let ttft = Sketch.create () in
  let e2e = Sketch.create () in
  let queue_wait = Sketch.create () in
  let dispatched = ref 0 in
  let dropped = ref 0 in
  let tokens = ref 0.0 in
  let redispatched = ref 0.0 in
  let busy = ref 0.0 in
  let makespan = ref 0.0 in
  let peak = ref 0 in
  let overrides = ref 0 in
  Array.iter
    (fun o ->
      Array.blit o.o_node_tokens 0 per_node_tokens o.o_lo
        (Array.length o.o_node_tokens);
      Array.blit o.o_node_requests 0 per_node_requests o.o_lo
        (Array.length o.o_node_requests);
      Sketch.merge_into ~into:ttft o.o_ttft;
      Sketch.merge_into ~into:e2e o.o_e2e;
      Sketch.merge_into ~into:queue_wait o.o_queue;
      dispatched := !dispatched + o.o_dispatched;
      dropped := !dropped + o.o_dropped;
      tokens := !tokens +. o.o_tokens;
      redispatched := !redispatched +. o.o_redispatched;
      busy := !busy +. o.o_busy_s;
      if o.o_makespan_s > !makespan then makespan := o.o_makespan_s;
      if o.o_peak_rack_hot > !peak then peak := o.o_peak_rack_hot;
      overrides := !overrides + o.o_overrides)
    outs;
  let max_node_tokens = Array.fold_left Float.max 0.0 per_node_tokens in
  let mean_node_tokens =
    Array.fold_left ( +. ) 0.0 per_node_tokens /. float cfg.nodes
  in
  let r =
    {
      r_nodes = cfg.nodes;
      r_shards = cfg.shards;
      dispatched = !dispatched;
      dropped = !dropped;
      total_tokens = !tokens;
      redispatched_tokens = !redispatched;
      makespan_s = !makespan;
      throughput_tokens_per_s =
        (if !makespan > 0.0 then !tokens /. !makespan else 0.0);
      imbalance =
        (if mean_node_tokens > 0.0 then max_node_tokens /. mean_node_tokens
         else 1.0);
      mean_utilization =
        (if !makespan > 0.0 then !busy /. (float cfg.nodes *. !makespan)
         else 0.0);
      peak_rack_hot = !peak;
      power_cap_overrides = !overrides;
      ttft;
      e2e;
      queue_wait;
      per_node_tokens;
      per_node_requests;
    }
  in
  Option.iter (fun s -> publish (Sink.metrics s) r) obs;
  r

type objectives = { max_ttft_p99_s : float; max_e2e_p99_s : float }

let interactive = { max_ttft_p99_s = 0.5; max_e2e_p99_s = 30.0 }

type frontier_point = {
  fp_policy : policy;
  offered_req_per_s : float;
  utilization_of_capacity : float;
  ttft_p50_s : float;
  ttft_p99_s : float;
  e2e_p99_s : float;
  fp_imbalance : float;
  fp_throughput_tokens_per_s : float;
  fp_dropped : int;
  meets_slo : bool;
}

let sweep ?domains ?node_events ~policies ~rates ~requests ~seed objectives cfg
    spec =
  let capacity = capacity_req_per_s cfg spec in
  let grid =
    List.concat_map (fun p -> List.map (fun r -> (p, r)) rates) policies
  in
  Par.parallel_map ?domains
    (fun (policy, rate) ->
      let spec = Arrivals.with_mean_rate spec rate in
      let res = run ?node_events ~policy ~requests ~seed cfg spec in
      let ttft_p50 = Sketch.quantile res.ttft 0.50 in
      let ttft_p99 = Sketch.quantile res.ttft 0.99 in
      let e2e_p99 = Sketch.quantile res.e2e 0.99 in
      {
        fp_policy = policy;
        offered_req_per_s = rate;
        utilization_of_capacity = rate /. capacity;
        ttft_p50_s = ttft_p50;
        ttft_p99_s = ttft_p99;
        e2e_p99_s = e2e_p99;
        fp_imbalance = res.imbalance;
        fp_throughput_tokens_per_s = res.throughput_tokens_per_s;
        fp_dropped = res.dropped;
        meets_slo =
          res.dropped = 0
          && ttft_p99 <= objectives.max_ttft_p99_s
          && e2e_p99 <= objectives.max_e2e_p99_s;
      })
    grid
