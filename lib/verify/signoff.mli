(** Whole-design static signoff: bundle compiled artifacts — per-chip ME
    netlists, collective plans, the stage mapping, buffer budgets — and run
    every rule family over them (paper §3.2's DRC/LVS gate generalized to
    the whole system).

    [hnlpu check] builds {!reference} (the gpt-oss 120B design with one
    representative neuron bank per chip), runs {!check}, prints the report
    and exits by severity.  {!fixture} returns the same design with one
    seeded violation per rule ID — the negative controls proving each rule
    actually fires. *)

type chip_design = {
  chip : Hnlpu_noc.Topology.chip;
  netlist : Hnlpu_litho.Hn_compiler.netlist;
  schematic : Hnlpu_neuron.Gemv.t;
}

type design = {
  config : Hnlpu_model.Config.t;
  chips : chip_design list;          (** One ME netlist per fabric chip. *)
  plans : (string * Hnlpu_noc.Schedule.collective * Hnlpu_noc.Schedule.t) list;
      (** Named collective plans, checked in order. *)
  stage_map : System_rules.stage_slot list;
  claimed_slots : int;               (** What the scheduler batches against. *)
  max_context : int;                 (** Worst case the buffers must absorb. *)
  power_scale : float;               (** Operating-point power multiplier
                                         (1.0 = the Table 1 floorplan). *)
  coolant_c : float;                 (** Facility coolant temperature. *)
  execution : Hnlpu_system.Execution.t;
                                     (** Declared execution environment,
                                         linted by DET-LINT. *)
}

val reference : ?seed:int -> unit -> design
(** The gpt-oss 120B reference design: 16 chips each carrying a compiled
    48x6 representative neuron bank, the collective plans the dataflow
    uses — the canonical plan of every {!Hnlpu_system.Layer_program}
    entry on every instance, in program order, 29 in all, named from op
    and instance ([q.col0] ... [moe.all]) — the canonical stage map, and a
    64K worst-case context.  Signoff-clean by construction. *)

val check : ?dynamic:bool -> design -> Diagnostic.t list
(** The full rule set: per-chip congestion/DRC/LVS, cross-chip mask
    uniformity, per-plan link/port/byte/execution/makespan checks, the
    {!Static} dataflow passes (deadlock, def-use, buffer liveness,
    determinism lint), pipeline mapping, weight partition, buffer budget,
    scheduler slots, and the thermal operating point.  A plan that
    {!Noc_rules.malformed} rejects gets its [NOC-BYTES] errors and link
    and port checks only.  [dynamic:false]
    (default [true]) skips the NOC-EXEC value execution — the
    static-only pre-admission mode behind [hnlpu check --static]. *)

val rules : string list
(** Every stable rule ID, for [--fixture] enumeration and self-tests. *)

val expected_severity : string -> Diagnostic.severity
(** The severity the rule's {!fixture} must trigger: [Warning] for
    [NOC-MAKESPAN] (a slow-but-correct plan still ships), [Error] for
    everything else — including all four static dataflow families
    ([NOC-DEADLOCK], [NOC-DEFUSE], [BUF-LIVE], [DET-LINT]). *)

val fixture : string -> design
(** [fixture rule] is {!reference} with one seeded violation of [rule].
    Raises [Invalid_argument] for an unknown rule ID. *)
