(** System-level signoff rules: pipeline mapping, attention-buffer budget,
    scheduler slot invariants.

    Rule IDs:
    - [PIPE-MAP]   — each of the model's layers x 6 pipeline stages must be
      mapped exactly once, and the 4x4 weight partition of
      {!Hnlpu_system.Mapping} must tile every projection matrix exactly.
    - [BUF-OVFL]   — static worst-case attention-buffer (KV) occupancy per
      chip against the 320 MB SRAM budget, with HBM-spill feasibility
      (capacity and streaming bandwidth) when the context does not fit.
    - [SCHED-SLOT] — the slot count a deployment schedules against must
      equal the design's [stages x layers] pipeline slots. *)

type stage_slot = { layer : int; stage : int }
(** One pipeline slot: [layer] in [0, num_layers), [stage] in [0, 6). *)

val canonical_stage_map : Hnlpu_model.Config.t -> stage_slot list
(** Every (layer, stage) pair exactly once — what the control unit
    schedules. *)

val pipeline_mapping :
  subject:string -> Hnlpu_model.Config.t -> stage_slot list -> Diagnostic.t list
(** [PIPE-MAP] over an explicit slot assignment: out-of-range, unmapped and
    multiply-mapped layer-stages. *)

val weight_partition :
  subject:string -> Hnlpu_model.Config.t -> Diagnostic.t list
(** [PIPE-MAP] over the 16-chip weight partition: divisibility
    ({!Hnlpu_system.Mapping.check_mappable}), exact tiling of Wq/Wk/Wv/Wo,
    and single ownership of every expert. *)

val buffer_budget :
  subject:string -> Hnlpu_model.Config.t -> max_context:int -> Diagnostic.t list
(** [BUF-OVFL]: worst-case per-chip KV bytes at [max_context] vs SRAM
    capacity; beyond it, the spilled working set must fit HBM and stream
    within a token time. *)

val scheduler_slots :
  subject:string -> Hnlpu_model.Config.t -> claimed_slots:int -> Diagnostic.t list
(** [SCHED-SLOT]: [claimed_slots] (what a scheduler/deployment manifest
    batches against) must equal {!Hnlpu_system.Perf.pipeline_slots}. *)
