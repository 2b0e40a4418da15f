(** Static dataflow analyses over NOC plans and execution configs.

    Everything here is decided without executing a plan on values — the
    pre-admission gate a fleet runs before a design bundle touches
    hardware.  Four rule families:

    - [NOC-DEADLOCK] — the step-ordered channel-dependency graph must be
      acyclic.  A chip that holds no value yet can only forward what a
      same-step delivery brings it, so each such transfer waits on every
      same-step delivery into its source; a cycle can never start, and the
      diagnostic prints the offending cycle path.
    - [NOC-DEFUSE] — def-use dataflow over transfer payloads per chip via
      {!Hnlpu_noc.Schedule.run_symbolic}: reads of never-written shards,
      same-step double-writes racing for one slot, wrong final contribution
      multisets, and dead transfers (produced but never consumed — a
      [Warning]).  Catches value bugs whose bytes balance, statically —
      the class [NOC-BYTES] cannot see and [NOC-EXEC] only catches by
      running the plan.
    - [BUF-LIVE] — interval liveness of attention-buffer occupancy along
      the plan: each chip's working payload plus its worst per-step RX/TX
      staging must fit in the buffer headroom left after worst-case KV at
      the deployment's [max_context].  [Error] on guaranteed overflow,
      [Warning] within 10% of headroom.
    - [DET-LINT] — determinism lint over the deployment's declared
      {!Hnlpu_system.Execution} config: wall-clock seeding, sink merges
      out of rate order, hash-order exports. *)

val deadlock :
  subject:string -> Hnlpu_noc.Schedule.collective -> Hnlpu_noc.Schedule.t ->
  Diagnostic.t list
(** [NOC-DEADLOCK].  Producers (who hold a value before step 0) come from
    {!Hnlpu_noc.Schedule.semantics} of the declared collective.  [Info]
    when acyclic. *)

val defuse :
  subject:string -> Hnlpu_noc.Schedule.collective -> Hnlpu_noc.Schedule.t ->
  Diagnostic.t list
(** [NOC-DEFUSE] under {!Hnlpu_noc.Schedule.semantics}: every required
    chip must end with exactly one copy of each producer's value, and
    every delivery must reach a required chip. *)

val headroom_bytes : Hnlpu_model.Config.t -> max_context:int -> int
(** Attention-buffer bytes left for NOC staging after the worst-striped
    chip's resident KV at [max_context] (clamped at zero when the KV
    already spills) — the budget [BUF-LIVE] checks against. *)

val buffer_liveness :
  subject:string ->
  config:Hnlpu_model.Config.t -> max_context:int -> Hnlpu_noc.Schedule.t ->
  Diagnostic.t list
(** [BUF-LIVE] over one plan. *)

val determinism :
  subject:string -> Hnlpu_system.Execution.t -> Diagnostic.t list
(** [DET-LINT] over a declared execution config. *)

val check_plan :
  subject:string ->
  config:Hnlpu_model.Config.t -> max_context:int ->
  Hnlpu_noc.Schedule.collective -> Hnlpu_noc.Schedule.t -> Diagnostic.t list
(** {!deadlock} @ {!defuse} @ {!buffer_liveness} — every per-plan static
    pass ({!determinism} is per-design, not per-plan).  The plan must be
    well formed ({!Noc_rules.malformed} empty). *)
