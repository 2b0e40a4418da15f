(* Fleet-scale cluster simulator.  See the .mli for the model and the
   sharding/determinism contract.

   Layout notes, because this is an ALLOC-HOT hot path at 10⁶–10⁷
   requests:

   - all per-node state is flat arrays indexed by shard-local node id
     (float stores into [float array] are unboxed writes);
   - the per-shard mutable float scalars live in the all-float record
     [sfl] (flat representation, no boxing on store);
   - routing reads indexed 4-ary min-heaps ([iheap]: slot -> element in
     [slots], each slot's key in a parallel float array so the sifts
     compare keys in slot order, element -> slot in a [pos] array shared
     by every heap over the same elements).  Slot p's children are
     4p+1..4p+4, so a 250-node shard sifts 4 levels deep, not 8.  Ties
     break toward the lower id, reproducing the historical first-minimum
     scan exactly; the order is total, so the minimum is the same node
     however a heap happens to be arranged.  That is what lets a re-key
     after new work run bottom-up (the hole to the bottom, then a short
     sift up) and lets [least] look at ids only when two keys are equal;
   - Least_loaded keeps one heap of all active nodes.  Power_aware
     keeps three: [all] holds the active hot nodes, [cold.(r)] rack r's
     active cold nodes, and [racks] the racks below their cap with a
     non-empty cold heap, keyed by that heap's top.  The choice is the
     lesser of two tops, O(log n) per request; only the all-capped
     override scans the racks (and is counted).  Round_robin and
     Session_affinity probe node status in index order and keep no
     heap ([ranks] is false);
   - hot/idle power tracking is one more [iheap], over the hot nodes,
     keyed by each node's cool-down deadline in [idle.src] with its own
     [pos] array: one entry per hot {e period}, re-keyed in place when a
     node that got more work reaches its old deadline, not per request.
     The per-request drain check reads the earliest deadline straight
     from [idle.keys.(0)] (the sentinel [infinity] when no node is
     hot): a flat float compare, no call;
   - the request path crosses into another module once per block of
     [block] = 256 requests, through flat arrays (DESIGN §7): one
     [Arrivals.fill] draws the block's arrival times, lengths and users,
     and after the block's routing one [Sketch.observe_block] per sketch
     takes its TTFT, end-to-end and queue samples from the shard's three
     [Float.Array]s.  Events still apply before each arrival, and routing
     stays request by request.  No float crosses a call: sifts read the
     moving element's key from its source array, and [Arrivals] keeps its
     per-spec rates in its all-float record;
   - everything request-rate-proportional lives in [module Hot], which
     Lint_config registers as an ALLOC-HOT Leaf (any allocation is an
     error); [run_shard] is the Driver around it. *)

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

(* Both rates come from Perf's memo: the decode rate is
   [Perf.throughput_tokens_per_s] from the one cached token latency, and
   the prefill rate is read, not re-evaluated, on every set-up. *)
let config_of_model ?(shards = 8) ~nodes mconfig =
  let context = 2048 in
  let tok_lat = Perf.token_latency_cached mconfig ~context in
  {
    nodes;
    shards = min shards (max 1 nodes);
    rack_size = 16;
    rack_power_cap = 12;
    idle_after_s = 30.0;
    prefill_tokens_per_s = Perf.prefill_throughput_cached mconfig ~chunk:8 ~context;
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

(* Requests a shard draws, routes and records per block: one
   [Arrivals.fill] and one [Sketch.observe_block] per sketch each. *)
let block = 256

(* Per-shard mutable float scalars, all-float for flat stores.  [now_s]
   is how simulated time reaches the [Hot] helpers: a float argument to
   a non-inlined call is boxed at every call site, a store into an
   all-float record is flat. *)
type sfl = {
  mutable now_s : float;
  mutable busy_s : float;
  mutable makespan_s : float;
  mutable tokens : float;
  mutable redispatched : float;
}

(* An indexed 4-ary min-heap over the elements [0, Array.length pos).
   [src] is the element -> key array the heap orders by (a node's
   [free_at], a rack's [rack_key]); [keys] mirrors it in slot order.
   Heaps over one element set share [src] and [pos]: an element sits in
   at most one of them.  Every slot from [len] on holds a sentinel (key
   [infinity], element [max_int]), three of them past the capacity, so a
   sift-down compares all four children of a slot without asking which
   exist: a sentinel never wins against an element. *)
type iheap = {
  slots : int array;  (* slot -> element *)
  keys : float array;  (* slot -> key of its element *)
  src : float array;  (* element -> current key *)
  pos : int array;  (* element -> slot in its heap, -1 when in none *)
  mutable len : int;
}

let empty_heap ~src ~pos capacity =
  {
    slots = Array.make (capacity + 3) max_int;
    keys = Array.make (capacity + 3) infinity;
    src;
    pos;
    len = 0;
  }

(* Elements [first, first + n), ids ascending: with equal keys the
   identity arrangement already satisfies the heap order. *)
let full_heap ~src ~pos ~first n =
  let h = empty_heap ~src ~pos n in
  for k = 0 to n - 1 do
    h.slots.(k) <- first + k;
    h.keys.(k) <- src.(first + k);
    pos.(first + k) <- k
  done;
  h.len <- n;
  h

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
  pa : bool;  (* Power_aware: [all] holds hot nodes only, [cold]/[racks] live *)
  ranks : bool;  (* Least_loaded or Power_aware: [all] is maintained *)
  all : iheap;  (* active nodes; under Power_aware the active hot ones *)
  cold : iheap array;  (* Power_aware: rack -> its active cold nodes *)
  racks : iheap;  (* Power_aware: racks below the cap with cold nodes *)
  rack_key : float array;  (* rack -> key of its cold heap's top *)
  hot : int array;  (* 0 cold / 1 hot *)
  rack_hot : int array;
  idle : iheap;  (* hot nodes by cool-down deadline *)
  mutable peak_rack_hot : int;
  mutable overrides : int;
  mutable rr : int;
  mutable dispatched : int;
  mutable dropped : int;
  fl : sfl;
  ttft_block : Float.Array.t;  (* this block's samples, [block] slots each *)
  e2e_block : Float.Array.t;
  queue_block : Float.Array.t;
  mutable sampled : int;  (* samples in the blocks so far *)
  ttft : Sketch.t;
  e2e : Sketch.t;
  queue : Sketch.t;
}

(* Everything request-rate-proportional: registered as an ALLOC-HOT Leaf
   (Lint_config), so any allocation below is a lint error. *)
module Hot = struct
  (* Slots are ordered lexicographically by (key, element): among
     equally-free nodes the lower id wins, matching the historical
     first-minimum scan.  Racks are contiguous node ranges, so the lower
     rack also holds the lower top node.  The sifts move a hole rather
     than swapping: the moving element's own key is [src.(e)], every
     other comparison reads [keys] in slot order.  Slot indices stay
     below the padded capacity by construction, so the sift primitives
     read and write unchecked. *)
  let[@inline] before h e s =
    let k = Array.unsafe_get h.src e and ks = Array.unsafe_get h.keys s in
    k < ks || (k = ks && e < Array.unsafe_get h.slots s)

  (* The lesser of slots [a] and [b].  Which key is less is a coin flip
     the branch predictor cannot learn, so it selects without a branch;
     equal keys are rare (all-idle nodes at the start), so the id compare
     sits behind a branch that is almost never taken. *)
  let[@inline] least h a b =
    let ka = Array.unsafe_get h.keys a and kb = Array.unsafe_get h.keys b in
    if ka <> kb then a lxor ((a lxor b) land -Bool.to_int (kb < ka))
    else if Array.unsafe_get h.slots b < Array.unsafe_get h.slots a then b
    else a

  (* The least of the four children from slot [c0].  Without a tie in
     either pair, each pair's lesser child is [c0] or [c0 + 2] plus one
     flag, and one [least] picks between the two; a tie in a pair takes
     [least] on all three pairings. *)
  let[@inline] least4 h c0 =
    let k0 = Array.unsafe_get h.keys c0 and k1 = Array.unsafe_get h.keys (c0 + 1) in
    let k2 = Array.unsafe_get h.keys (c0 + 2) and k3 = Array.unsafe_get h.keys (c0 + 3) in
    if k0 = k1 || k2 = k3 then least h (least h c0 (c0 + 1)) (least h (c0 + 2) (c0 + 3))
    else least h (c0 + Bool.to_int (k1 < k0)) (c0 + 2 + Bool.to_int (k3 < k2))

  (* Whether heap [a]'s top precedes heap [b]'s (both non-empty). *)
  let[@inline] less_tops a b =
    let ka = a.keys.(0) and kb = b.keys.(0) in
    ka < kb || (ka = kb && a.slots.(0) < b.slots.(0))

  let[@inline] place h p e =
    Array.unsafe_set h.slots p e;
    Array.unsafe_set h.keys p (Array.unsafe_get h.src e);
    Array.unsafe_set h.pos e p

  (* Slot [from]'s element moves into slot [dst]. *)
  let[@inline] move h from dst =
    let j = Array.unsafe_get h.slots from in
    Array.unsafe_set h.slots dst j;
    Array.unsafe_set h.keys dst (Array.unsafe_get h.keys from);
    Array.unsafe_set h.pos j dst

  (* Settles element [e] upward from the hole at slot [p]. *)
  let rec sift_up h e p =
    if p = 0 then place h p e
    else begin
      let parent = (p - 1) lsr 2 in
      if before h e parent then begin
        move h parent p;
        sift_up h e parent
      end
      else place h p e
    end

  (* Settles element [e] downward from the hole at slot [p]. *)
  let rec sift_down h e p =
    let c0 = (4 * p) + 1 in
    if c0 >= h.len then place h p e
    else begin
      let c = least4 h c0 in
      if before h e c then place h p e
      else begin
        move h c p;
        sift_down h e c
      end
    end

  let add h e =
    let p = h.len in
    h.len <- p + 1;
    sift_up h e p

  (* The last slot's element [j] refills [e]'s slot; the last slot
     becomes a sentinel. *)
  let remove h e =
    let p = h.pos.(e) in
    let last = h.len - 1 in
    let j = h.slots.(last) in
    h.len <- last;
    h.pos.(e) <- -1;
    h.slots.(last) <- max_int;
    h.keys.(last) <- infinity;
    if p <> last then
      if p > 0 && before h j ((p - 1) lsr 2) then sift_up h j p else sift_down h j p

  (* Re-settles [e] after its key moved either way. *)
  let update h e =
    let p = h.pos.(e) in
    if p > 0 && before h e ((p - 1) lsr 2) then sift_up h e p else sift_down h e p

  (* Walks the hole at slot [p] down the least-child path to the bottom,
     moving each least child up; returns the bottom slot. *)
  let rec hole_down h p =
    let c0 = (4 * p) + 1 in
    if c0 >= h.len then p
    else begin
      let c = least4 h c0 in
      move h c p;
      hole_down h c
    end

  (* A node's [free_at] and a hot node's deadline only grow while it
     sits in a heap, and a node that just took work usually belongs near
     the bottom.  So the re-key is Floyd's bottom-up one: the hole runs to
     the bottom with one compare per child and none against [i], and [i]
     sifts up the short way back. *)
  let requeue h i = sift_up h i (hole_down h h.pos.(i))

  (* Power_aware: rack [r] belongs in [racks] while it is below the cap
     and has an active cold node, keyed by that node's [free_at]. *)
  let refresh_rack st r =
    let c = st.cold.(r) in
    let t = st.racks in
    if c.len > 0 && st.rack_hot.(r) < st.rack_cap then begin
      st.rack_key.(r) <- c.keys.(0);
      if t.pos.(r) < 0 then add t r else update t r
    end
    else if t.pos.(r) >= 0 then remove t r

  (* An active node enters or leaves routing (Recover; Drain or Fail). *)
  let attach st i =
    if st.pa && st.hot.(i) = 0 then begin
      let r = i / st.rack_size in
      add st.cold.(r) i;
      refresh_rack st r
    end
    else if st.ranks then add st.all i

  let detach st i =
    if st.pa && st.hot.(i) = 0 then begin
      let r = i / st.rack_size in
      remove st.cold.(r) i;
      refresh_rack st r
    end
    else if st.ranks then remove st.all i

  (* Cold node [i] took work (its [free_at] already grown): it turns hot
     and enters [idle] at its cool-down deadline.  Under Power_aware the
     node moves from its rack's cold heap to [all], and the rack may
     reach its cap. *)
  let warm st i =
    st.hot.(i) <- 1;
    let r = i / st.rack_size in
    let h = st.rack_hot.(r) + 1 in
    st.rack_hot.(r) <- h;
    if h > st.peak_rack_hot then st.peak_rack_hot <- h;
    st.idle.src.(i) <- st.free_at.(i) +. st.idle_after_s;
    add st.idle i;
    if st.pa then begin
      remove st.cold.(r) i;
      add st.all i;
      refresh_rack st r
    end
    else if st.ranks then requeue st.all i

  (* Re-keys active node [i] after its [free_at] grew; the hot check is
     the whole cost for a node that is already hot. *)
  let[@inline] touch st i =
    if st.hot.(i) = 0 then warm st i else if st.ranks then requeue st.all i

  (* Hot node [i] of rack [r] cooled down. *)
  let cool st i r =
    st.hot.(i) <- 0;
    st.rack_hot.(r) <- st.rack_hot.(r) - 1;
    if st.pa then begin
      if st.status.(i) = 0 then begin
        remove st.all i;
        add st.cold.(r) i
      end;
      refresh_rack st r
    end

  (* Retire cool-down deadlines that have passed, earliest (deadline,
     id) first: a node idle since its deadline cools, one that got more
     work since is re-keyed at its new deadline (one entry per hot
     period).  Callers check [idle.keys.(0) <= now_s] first; cooling
     only changes set membership, so the order among equal deadlines
     decides nothing. *)
  let rec drain_idle st =
    let h = st.idle in
    if h.keys.(0) <= st.fl.now_s then begin
      let i = h.slots.(0) in
      let deadline = st.free_at.(i) +. st.idle_after_s in
      if deadline <= st.fl.now_s then begin
        remove h i;
        cool st i (i / st.rack_size)
      end
      else begin
        h.src.(i) <- deadline;
        requeue h i
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

  let[@inline] route_ll st = if st.all.len = 0 then -1 else st.all.slots.(0)

  (* [user] indexes the shard's own cursor, whose pool is [st.users]. *)
  let route_sa st user =
    let home = hash_user (Array.unsafe_get st.users user) mod st.total_nodes in
    probe_active st (home - st.lo) st.n

  (* The least (free_at, id) top among the racks' cold heaps, -1 when
     every one is empty. *)
  let rec min_cold st r best =
    if r = Array.length st.cold then best
    else begin
      let c = st.cold.(r) in
      if c.len > 0
         && (best < 0
            ||
            let k = c.keys.(0) and kb = st.free_at.(best) in
            k < kb || (k = kb && c.slots.(0) < best))
      then min_cold st (r + 1) c.slots.(0)
      else min_cold st (r + 1) best
    end

  (* Least-loaded among hot nodes and cold nodes of racks under the cap:
     the lesser of [all]'s top and the top of the cold heap that
     [racks]' top names. *)
  let route_pa st =
    let h = st.all and t = st.racks in
    if t.len > 0 then begin
      let c = st.cold.(t.slots.(0)) in
      if h.len > 0 && less_tops h c then h.slots.(0) else c.slots.(0)
    end
    else if h.len > 0 then h.slots.(0)
    else begin
      (* Every active node is cold inside a capped rack: power up past
         the cap rather than drop the request, and count the override. *)
      let i = min_cold st 0 (-1) in
      if i >= 0 then st.overrides <- st.overrides + 1;
      i
    end

  let[@inline] route st policy user =
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
    touch st idx;
    st.node_tokens.(idx) <- st.node_tokens.(idx) +. pf +. df;
    st.node_requests.(idx) <- st.node_requests.(idx) + 1;
    st.dispatched <- st.dispatched + 1;
    st.fl.busy_s <- st.fl.busy_s +. service_s;
    st.fl.tokens <- st.fl.tokens +. pf +. df;
    let completion = now +. e2e in
    let span = if finish > completion then finish else completion in
    if span > st.fl.makespan_s then st.fl.makespan_s <- span;
    let k = st.sampled in
    Float.Array.unsafe_set st.ttft_block k ttft;
    Float.Array.unsafe_set st.e2e_block k e2e;
    Float.Array.unsafe_set st.queue_block k queue;
    st.sampled <- k + 1

  (* Hands the block's samples to the sketches, in request order. *)
  let flush st =
    Sketch.observe_block st.ttft st.ttft_block st.sampled;
    Sketch.observe_block st.e2e st.e2e_block st.sampled;
    Sketch.observe_block st.queue st.queue_block st.sampled;
    st.sampled <- 0
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
        Hot.detach st i
      end
    | Fail ->
        if st.status.(i) <> 2 then begin
          if st.status.(i) = 0 then Hot.detach st i;
          st.status.(i) <- 2;
          let now = ev.at_s in
          st.fl.now_s <- now;
          if st.idle.keys.(0) <= now then Hot.drain_idle st;
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
              Hot.touch st tgt;
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
          Hot.attach st i
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

let make_state cfg shard ~policy ~users =
  let lo = shard_lo cfg shard in
  let n = shard_lo cfg (shard + 1) - lo in
  let nracks = ((n - 1) / cfg.rack_size) + 1 in
  let free_at = Array.make n 0.0 in
  let pos = Array.make n (-1) in
  let rack_key = Array.make nracks 0.0 in
  (* All nodes start active and cold with free_at 0.  Least_loaded
     routes over one heap of them; Power_aware starts with no hot node,
     every node in its rack's cold heap and every rack below its
     (positive) cap; Round_robin and Session_affinity keep no heap. *)
  let pa = policy = Power_aware in
  let ranks = pa || policy = Least_loaded in
  let all, cold, racks =
    if pa then
      ( empty_heap ~src:free_at ~pos n,
        Array.init nracks (fun r ->
            let first = r * cfg.rack_size in
            full_heap ~src:free_at ~pos ~first (min cfg.rack_size (n - first))),
        full_heap ~src:rack_key ~pos:(Array.make nracks (-1)) ~first:0 nracks )
    else
      ( (if ranks then full_heap ~src:free_at ~pos ~first:0 n
         else empty_heap ~src:free_at ~pos 0),
        [||],
        empty_heap ~src:rack_key ~pos:[||] 0 )
  in
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
    free_at;
    node_tokens = Array.make n 0.0;
    node_requests = Array.make n 0;
    status = Array.make n 0;
    pa;
    ranks;
    all;
    cold;
    racks;
    rack_key;
    hot = Array.make n 0;
    rack_hot = Array.make nracks 0;
    idle = empty_heap ~src:(Array.make n infinity) ~pos:(Array.make n (-1)) n;
    peak_rack_hot = 0;
    overrides = 0;
    rr = 0;
    dispatched = 0;
    dropped = 0;
    fl =
      {
        now_s = 0.0;
        busy_s = 0.0;
        makespan_s = 0.0;
        tokens = 0.0;
        redispatched = 0.0;
      };
    ttft_block = Float.Array.make block 0.0;
    e2e_block = Float.Array.make block 0.0;
    queue_block = Float.Array.make block 0.0;
    sampled = 0;
    ttft = Sketch.create ();
    e2e = Sketch.create ();
    queue = Sketch.create ();
  }

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
   rate) on stream [shard] of the seed.  It draws them [block] at a time
   with one [Arrivals.fill], then routes them one by one, each after the
   events at or before its arrival, and hands the block's samples to the
   sketches with one [Sketch.observe_block] each. *)
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
  let st = make_state cfg shard ~policy ~users in
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
    let time = Float.Array.make block 0.0 in
    let prefill = Array.make block 0
    and decode = Array.make block 0
    and user = Array.make block 0 in
    let left = ref count in
    while !left > 0 do
      let k = if !left < block then !left else block in
      Arrivals.fill cur ~time ~prefill ~decode ~user k;
      for b = 0 to k - 1 do
        let now = Float.Array.unsafe_get time b in
        while !ep < nev && (Array.unsafe_get events !ep).at_s <= now do
          apply_event st policy (Array.unsafe_get events !ep);
          incr ep
        done;
        st.fl.now_s <- now;
        if st.idle.keys.(0) <= now then Hot.drain_idle st;
        let idx = Hot.route st policy (Array.unsafe_get user b) in
        if idx < 0 then st.dropped <- st.dropped + 1
        else
          Hot.assign st (Array.unsafe_get prefill b) (Array.unsafe_get decode b) idx
      done;
      Hot.flush st;
      left := !left - k
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
  Metrics.set m "fleet/makespan_s" r.makespan_s;
  Metrics.set m "fleet/peak_rack_hot" (float r.peak_rack_hot)

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

let sweep ?node_events ~policies ~rates ~requests ~seed objectives cfg
    spec =
  let capacity = capacity_req_per_s cfg spec in
  let grid =
    List.concat_map (fun p -> List.map (fun r -> (p, r)) rates) policies
  in
  Par.parallel_map
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
