(** Execution-environment configuration a deployment declares for signoff.

    Everything stochastic in this codebase takes an explicit {!Hnlpu_util.Rng}
    ({!Arrivals}, request sampling), {!Slo.sweep} merges the
    per-rate private telemetry sinks back in rate order after the parallel
    map, and {!Hnlpu_obs.Metrics} exports sorted by key — so a run replays
    bit-identically and is independent of domain-pool width (tested).  A
    deployment, however, can defeat each of those properties at the
    integration layer: seed from the wall clock, merge worker sinks as they
    complete, or dump a hash table in iteration order.  This record is the
    deployment's declaration of those choices; the DET-LINT signoff rule
    ({!Hnlpu_verify.Static.determinism}) walks it and flags every
    nondeterminism hazard.  Bundles carry it as optional manifest keys
    ([workload-seed], [sink-merge], [export-order], [domains]). *)

type seeding =
  | Fixed of int  (** Workload RNG pinned — replays are bit-identical. *)
  | Wall_clock    (** Seeded from the clock — every run diverges. *)

type merge_order =
  | Rate_order        (** Per-lane sinks merged in sweep (rate) order, the
                          {!Slo.sweep} discipline. *)
  | Completion_order  (** Merged as workers finish — order races. *)

type export_order =
  | Sorted      (** Artifacts iterate sorted keys ({!Hnlpu_obs.Metrics}). *)
  | Hash_order  (** Artifacts iterate a hash table — layout-dependent. *)

type t = {
  workload_seed : seeding;
  sink_merge : merge_order;
  export_order : export_order;
  domains : int option;
      (** Pinned domain-pool width, or [None] for the machine default.
          Width does not affect results ({!Hnlpu_par.Par} is
          width-independent by test), so this is informational. *)
}

val deterministic : t
(** [Fixed 42], [Rate_order], [Sorted], auto width — the reference
    deployment; DET-LINT-clean by construction. *)

val describe : t -> string
(** One line, manifest-style: [workload-seed=42 sink-merge=rate-order ...]. *)

(** {1 Manifest encoding} — total printers, partial parsers ([None] on an
    unknown token; [seeding_of_string] also accepts any integer). *)

val seeding_to_string : seeding -> string
val seeding_of_string : string -> seeding option
val merge_order_to_string : merge_order -> string
val merge_order_of_string : string -> merge_order option
val export_order_to_string : export_order -> string
val export_order_of_string : string -> export_order option
