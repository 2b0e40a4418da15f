(** NoC signoff rules over {!Hnlpu_noc.Schedule} collective plans.  What
    each declared collective means — its reference plan, producers,
    merge modes and required chips — comes from {!Hnlpu_noc.Schedule};
    these rules only compare a plan against it.

    Rule IDs:
    - [NOC-LINK]  — every transfer must ride an existing row/column link
      of the 4x4 fabric ({!Hnlpu_noc.Topology.connected}).
    - [NOC-PORT]  — per-step port contention: one TX stream per directed
      link, and no chip merges more incoming streams than its degree.
    - [NOC-BYTES] — the declaration and the plan are well formed ({!malformed}),
      and every chip of the group sends and receives exactly the bytes
      it does in {!Hnlpu_noc.Schedule.canonical} — a chip the reference
      shape gives no bytes must move none.  Plans touching chips outside
      the declared group are also flagged here.
    - [NOC-EXEC] — execution cross-check for every collective whose
      receivers add (reduce, all-reduce, all-chip all-reduce): run the
      plan on random vectors with {!Hnlpu_noc.Schedule.run} and diff
      every required chip's result against the mathematical sum.  Catches
      plans whose bytes balance but whose transfer ordering computes the
      wrong value — invisible to [NOC-BYTES] by construction.
    - [NOC-MAKESPAN] — [Warning] when the plan's makespan exceeds the
      canonical schedule's for the declared collective by more than 10%. *)

val contention : subject:string -> Hnlpu_noc.Schedule.t -> Diagnostic.t list
(** [NOC-PORT]: same-step TX duplicates on one directed link, RX merges
    beyond the chip's degree. *)

val malformed :
  subject:string -> Hnlpu_noc.Schedule.collective -> Hnlpu_noc.Schedule.t ->
  Diagnostic.t list
(** [NOC-BYTES] errors for a declaration {!Hnlpu_noc.Schedule.malformed}
    rejects (empty group, chip off the fabric or listed twice, root
    outside the group, negative payload) and for every transfer with a
    negative payload.  Every other plan-dependent rule, here and in
    {!Static}, assumes this list is empty. *)

val conservation :
  subject:string -> Hnlpu_noc.Schedule.collective -> Hnlpu_noc.Schedule.t ->
  Diagnostic.t list
(** [NOC-BYTES]: per-chip sent and received bytes against the tally of
    {!Hnlpu_noc.Schedule.canonical}, plus transfers leaving the group. *)

val execution :
  subject:string -> Hnlpu_noc.Schedule.collective ->
  Hnlpu_noc.Schedule.t -> Diagnostic.t list
(** [NOC-EXEC]: execute the plan on seeded random vectors (collectives
    whose receivers add on step 0 only — empty otherwise) and require
    every required chip to end with {!Hnlpu_noc.Collective.sum}.  A plan
    the executor rejects ([Invalid_argument]) is an error too. *)

val check :
  ?dynamic:bool -> subject:string -> Hnlpu_noc.Schedule.collective ->
  Hnlpu_noc.Schedule.t -> Diagnostic.t list
(** All rule families: links/ports/conservation (with an [Info] plan
    summary when those are clean), then the execution and makespan
    cross-checks.  A {!malformed} plan gets its [NOC-BYTES] errors plus
    links and ports only.  [dynamic:false] (default [true]) skips the
    [NOC-EXEC] value execution — the static-only pre-admission mode of
    [hnlpu check --static]. *)
