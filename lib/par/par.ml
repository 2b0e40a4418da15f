(* Deterministic domain-parallel execution over stdlib Domain (OCaml 5).

   Design constraints, in priority order:

   1. {b Determinism}: results are byte-identical regardless of the domain
      count.  Every task writes only its own index slot, reduction happens
      in index order on the calling domain, and seeded tasks derive their
      Rng from their index ({!Hnlpu_util.Rng.derive}), never from a shared
      stream.  [j = 1] takes the exact sequential code path (no pool, no
      atomics), so the parallel layer cannot perturb the sequential
      semantics it claims to reproduce.

   2. {b No oversubscription}: one long-lived pool of [j - 1] worker
      domains (the caller is the j-th participant), reused across calls
      and resized only when the requested width changes.  The shared pool
      registers an [at_exit] shutdown, so worker domains are always
      joined.

   3. {b Nesting safety}: a task that itself calls into this module runs
      its inner region sequentially (detected via a domain-local flag), so
      pools never wait on themselves. *)

type job = Run of (unit -> unit) | Quit

(* One record, shared by the workers (which capture it at spawn) and every
   caller.  [workers] is mutable and set right after spawning precisely so
   both sides see the same record — an earlier version built the workers
   first and returned [{ pool with workers }], a *copy*, so any mutable
   state the workers wrote (or any future liveness flag they might read)
   was on a record no caller ever saw. *)
type pool = {
  mutable workers : unit Domain.t array;
  inbox : job Queue.t;
  m : Mutex.t;
  nonempty : Condition.t;
  mutable live : bool;
  mutable started : int;  (* workers that have entered their loop *)
}

(* Set on worker domains: inner parallel regions degrade to sequential. *)
let on_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let rec worker_loop pool =
  Mutex.lock pool.m;
  while Queue.is_empty pool.inbox do
    Condition.wait pool.nonempty pool.m
  done;
  let job = Queue.pop pool.inbox in
  Mutex.unlock pool.m;
  match job with
  | Quit -> ()
  | Run f ->
    (* No blanket [try _ with _ -> ()] here: [run_tasks] traps per-task
       exceptions itself, so anything escaping [f] is a runtime
       catastrophe (Out_of_memory / Stack_overflow in the distribution
       bookkeeping).  Swallowing it would silently corrupt the region;
       instead it kills this worker and re-surfaces from [Domain.join]
       when the pool shuts down. *)
    f ();
    worker_loop pool

let create ?(domains = 0) () =
  if domains < 1 then invalid_arg "Par.create: domains must be >= 1";
  let pool =
    {
      workers = [||];
      inbox = Queue.create ();
      m = Mutex.create ();
      nonempty = Condition.create ();
      live = true;
      started = 0;
    }
  in
  pool.workers <-
    Array.init (domains - 1) (fun _ ->
        Domain.spawn (fun () ->
            Domain.DLS.set on_worker true;
            Mutex.lock pool.m;
            pool.started <- pool.started + 1;
            Mutex.unlock pool.m;
            worker_loop pool));
  pool

let size pool = Array.length pool.workers + 1

let live pool = pool.live

let spawned_workers pool =
  Mutex.lock pool.m;
  let n = pool.started in
  Mutex.unlock pool.m;
  n

let submit pool ~copies job =
  Mutex.lock pool.m;
  for _ = 1 to copies do
    Queue.push job pool.inbox
  done;
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.m

let shutdown pool =
  if pool.live then begin
    pool.live <- false;
    submit pool ~copies:(Array.length pool.workers) Quit;
    Array.iter Domain.join pool.workers
  end

let run_tasks pool ~tasks f =
  if tasks > 0 then begin
    if not pool.live then invalid_arg "Par.run_tasks: pool is shut down";
    if Array.length pool.workers = 0 || tasks = 1 || Domain.DLS.get on_worker
    then
      for i = 0 to tasks - 1 do
        f i
      done
    else begin
      let participants = Array.length pool.workers + 1 in
      let next = Atomic.make 0 in
      let completed = Atomic.make 0 in
      let done_m = Mutex.create () and all_done = Condition.create () in
      (* First task failure by *index* (not completion time), so the
         re-raise below is deterministic under any interleaving. *)
      let fail_m = Mutex.create () in
      let failure = ref None in
      let note i e bt =
        Mutex.lock fail_m;
        (match !failure with
        | Some (j, _, _) when j <= i -> ()
        | _ -> failure := Some (i, e, bt));
        Mutex.unlock fail_m
      in
      let drain () =
        (* Guided self-scheduling: each grab takes half an equal share of
           the *remaining* work, so early chunks are coarse (one atomic
           amortized over many tasks) and the tail degrades to single
           tasks, absorbing skewed per-task costs — sweep points are
           rarely uniform.  Chunk boundaries never affect results: each
           task writes only its own index slot. *)
        let rec go () =
          let remaining = tasks - Atomic.get next in
          if remaining > 0 then begin
            let chunk = max 1 (remaining / (2 * participants)) in
            let start = Atomic.fetch_and_add next chunk in
            if start < tasks then begin
              let stop = min tasks (start + chunk) in
              for i = start to stop - 1 do
                (try f i with e -> note i e (Printexc.get_raw_backtrace ()));
                if Atomic.fetch_and_add completed 1 = tasks - 1 then begin
                  Mutex.lock done_m;
                  Condition.signal all_done;
                  Mutex.unlock done_m
                end
              done;
              go ()
            end
          end
        in
        go ()
      in
      submit pool ~copies:(Array.length pool.workers) (Run drain);
      drain ();
      Mutex.lock done_m;
      while Atomic.get completed < tasks do
        Condition.wait all_done done_m
      done;
      Mutex.unlock done_m;
      match !failure with
      | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

(* --- Default width and the shared pool --------------------------------- *)

let forced = ref None

let env_domains () =
  match Sys.getenv_opt "HNLPU_DOMAINS" with
  | None -> None
  | Some s ->
    let s = String.trim s in
    if s = "" then None
    else
      (match int_of_string_opt s with
      | Some n when n >= 1 -> Some n
      | _ ->
        (* A malformed width used to fall through silently to the
           recommended count — a typo'd "HNLPU_DOMAINS=0" or "=four"
           would quietly run at full width. *)
        invalid_arg
          (Printf.sprintf
             "HNLPU_DOMAINS must be a positive integer, got %S" s))

let set_default_domains j =
  if j < 1 then invalid_arg "Par.set_default_domains: j must be >= 1";
  forced := Some j

let default_domains () =
  match !forced with
  | Some j -> j
  | None ->
    (match env_domains () with
    | Some j -> j
    | None -> max 1 (Domain.recommended_domain_count ()))

let shared_state : (int * pool) option ref = ref None
let exit_hook_registered = ref false

let shared_pool j =
  match !shared_state with
  | Some (width, pool) when width = j && pool.live -> pool
  | previous ->
    (match previous with Some (_, pool) -> shutdown pool | None -> ());
    let pool = create ~domains:j () in
    shared_state := Some (j, pool);
    if not !exit_hook_registered then begin
      exit_hook_registered := true;
      (* Always join worker domains on process exit, whatever width the
         pool last ran at. *)
      at_exit (fun () ->
          match !shared_state with
          | Some (_, pool) -> shutdown pool
          | None -> ())
    end;
    pool

let shared ?domains () =
  let j = match domains with Some j -> j | None -> default_domains () in
  if j < 1 then invalid_arg "Par.shared: domains must be >= 1";
  shared_pool j

(* --- Order-preserving combinators --------------------------------------- *)

(* Remaining-work estimate below which dispatching a region to the pool
   costs more than it buys: waking the workers (mutex + condvar
   broadcast) and bouncing the results array between domain caches is a
   low-hundreds-of-microseconds affair, so a sweep whose entire tail
   projects under this budget runs faster on the calling domain — and
   tiny sweeps used to come out *slower* than sequential. *)
let sequential_threshold_s = 2e-4

let parallel_init ?domains n f =
  if n < 0 then invalid_arg "Par.parallel_init: negative length";
  let j = match domains with Some j -> j | None -> default_domains () in
  if j < 1 then invalid_arg "Par.parallel_init: domains must be >= 1";
  if j = 1 || n <= 1 || Domain.DLS.get on_worker then Array.init n f
  else begin
    let results = Array.make n None in
    (* Probe: run task 0 on the calling domain and time it.  If the
       projected cost of the remaining tasks stays under the threshold,
       finish sequentially.  Results are byte-identical either way —
       every task writes only its own slot and the reduction below reads
       in index order; the clock picks the execution strategy, never a
       value.  Failure order is also preserved: task 0 is the
       lowest-possible-index failure, and [run_tasks] re-raises the
       lowest-indexed failure of the tail. *)
    let t0 = Unix.gettimeofday () in
    results.(0) <- Some (f 0);
    let dt = Unix.gettimeofday () -. t0 in
    if dt *. float_of_int (n - 1) < sequential_threshold_s then
      for i = 1 to n - 1 do
        results.(i) <- Some (f i)
      done
    else
      run_tasks (shared_pool j) ~tasks:(n - 1) (fun k ->
          results.(k + 1) <- Some (f (k + 1)));
    Array.map (function Some v -> v | None -> assert false) results
  end
[@@hnlpu.lint_ignore "DET-SRC"]

let parallel_map ?domains f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ ->
    let items = Array.of_list xs in
    Array.to_list (parallel_init ?domains (Array.length items) (fun i -> f items.(i)))

let parallel_sweep ?domains ~seed f xs =
  let items = Array.of_list xs in
  Array.to_list
    (parallel_init ?domains (Array.length items) (fun i ->
         f (Hnlpu_util.Rng.derive seed ~stream:i) items.(i)))
