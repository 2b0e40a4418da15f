(** One entry point per table and figure of the paper's evaluation.

    Each function returns a rendered {!Hnlpu_util.Table.t}; typed accessors
    are provided where downstream code (benches, tests, examples) consumes
    the numbers.  Paper columns print {!Paper}'s records, which also
    render EXPERIMENTS.md's paper-vs-reproduced tables. *)

val figure2 : unit -> Hnlpu_util.Table.t
(** Economics of hardwiring: mask/wafer amortization, GPU vs straw-man. *)

val figure12 : unit -> Hnlpu_util.Table.t
(** Area comparison (normalized to the MA SRAM). *)

val figure13 : unit -> Hnlpu_util.Table.t
(** Execution cycles and energy per GEMV. *)

val table1 : unit -> Hnlpu_util.Table.t
(** Single-chip area/power breakdown. *)

val table2 : unit -> Hnlpu_util.Table.t
(** System-level comparison vs H100 and WSE-3, with ratios. *)

val figure14 : unit -> Hnlpu_util.Table.t
(** Execution-time breakdown across context lengths. *)

val table3 : unit -> Hnlpu_util.Table.t
(** 3-year TCO and carbon. *)

val table4 : unit -> Hnlpu_util.Table.t
(** Chip NRE prices on various models. *)

val table5 : unit -> Hnlpu_util.Table.t
(** HNLPU cost analysis. *)

val all : ?domains:int -> unit -> (string * Hnlpu_util.Table.t) list
(** Every experiment, in paper order, with its identifier.  Artifacts
    build across the {!Hnlpu_par.Par} pool ([domains] overrides its
    width); the list is identical for every width.  Figures 12 and 13
    share one {!Paper.neuron_reports} build, so their tables equal
    [figure12 ()] and [figure13 ()] run alone. *)

val render_all : unit -> string
(** All tables as one report (what [hnlpu tables] prints before the
    charts). *)

(** {1 Figures as figures} — plain-text chart renderings. *)

val figure12_chart : Hnlpu_neuron.Report.t list -> string
(** Area bars of {!Paper.neuron_reports}, normalized to the first (the MA
    SRAM). *)

val figure13_chart : Hnlpu_neuron.Report.t list -> string
(** Energy bars of {!Paper.neuron_reports} on a log scale (the paper's axis).
    [hnlpu tables] draws both charts from one build. *)

val figure14_chart : unit -> string
(** 100%-stacked breakdown bars across context lengths. *)

val export_csv : dir:string -> string list
(** Write one CSV per artifact into [dir] (created if missing); returns
    the file paths. *)

val export_json : dir:string -> string list
(** Same artifacts as JSON arrays of objects. *)

val refresh : string -> string
(** EXPERIMENTS.md with its generated tables rewritten: each block
    between a line [<!-- generated: NAME -->] and a line
    [<!-- end generated -->] becomes NAME's markdown table — an
    artifact's {!Paper} records, or the {!Calibration} index for
    ["calibrated constants"].  Raises [Failure] on an unknown NAME or an
    unclosed block. *)
