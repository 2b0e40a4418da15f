(** The paper's figures and tables as this repository reproduces them.

    Each of the nine artifacts is one table of its {!Paper} records, a row
    per record in the layout [Quantity | Paper | Measured | Tolerance |
    Origin], every cell a record's own rendering.  [hnlpu tables],
    [hnlpu export] and EXPERIMENTS.md all print that one table. *)

val all : ?domains:int -> unit -> (string * Hnlpu_util.Table.t) list
(** The nine artifacts in paper order, each with its title ("Table 2:
    system-level comparison").  Artifacts build across the
    {!Hnlpu_par.Par} pool ([domains] overrides its width); the list is
    identical for every width.  Figures 12 and 13 are one job that builds
    {!Paper.neuron_reports} once for both. *)

val find : string -> (string * Hnlpu_util.Table.t) option
(** One artifact and its title, by name: ["Table 1"] or ["table1"],
    ["Figure 12"], ["figure12"] or ["fig12"] (case and spaces ignored). *)

val constants : unit -> Hnlpu_util.Table.t
(** The calibrated constants ({!Paper.fits}) with value, unit, anchor and
    fitted part: what [hnlpu signoff] prints, and EXPERIMENTS.md's index. *)

val render_all : unit -> string
(** All tables, then the Figure 12, 13 and 14 charts, as one report: what
    [hnlpu tables] prints.  One {!Paper.neuron_reports} build serves
    Figures 12 and 13 throughout. *)

val figure14_chart : unit -> string
(** Figure 14 as a chart: 100%-stacked breakdown bars across context
    lengths. *)

val export_csv : dir:string -> string list
(** Write one CSV per artifact into [dir] (created if missing); returns
    the file paths. *)

val export_json : dir:string -> string list
(** Same artifacts as JSON arrays of objects. *)

val refresh : string -> string
(** EXPERIMENTS.md with its generated tables rewritten: each block
    between a line [<!-- generated: NAME -->] and a line
    [<!-- end generated -->] becomes the markdown of NAME's table — an
    artifact's (["Side claims"] included), or {!constants} for
    ["calibrated constants"].  Raises [Failure] on an unknown NAME or an
    unclosed block. *)
