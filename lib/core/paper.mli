(** One record per reproduced paper number.

    Figures 2 and 12–14 and Tables 1–5, with the numbers the paper's text
    states, are this reproduction's specification.  Each number of theirs
    that the code reproduces is one record: the value the paper prints, how this repository measures it,
    its tolerance, and whether it is derived or the target a calibrated
    constant was fitted to.  A paper value or tolerance changes here and
    nowhere else: the tests check each record against its own tolerance,
    and {!Experiments} renders each artifact's records as the one table
    that [hnlpu tables], [hnlpu export] and EXPERIMENTS.md print. *)

type tolerance =
  | Rel of float  (** Within this many percent of the paper value. *)
  | Pp of float  (** Within this many percentage points (a share in %). *)
  | Band of float * float  (** Strictly between the bounds. *)
  | Below of float  (** Strictly below the bound. *)

(** A calibrated constant: a coefficient the paper's text does not give,
    fitted to one of its published operating points. *)
type fit = {
  constant : string;  (** Qualified name, e.g. "Perf.link_contention_factor". *)
  value : float;  (** Live value, read from the defining module. *)
  unit_ : string;
  anchor : string;  (** The paper artifact it reproduces. *)
  derived_fraction_note : string;  (** What part is first-principles vs fitted. *)
}

type origin = Derived | Fitted of fit

(** What the paper prints: a number, or a reading off a plot ("~150"). *)
type paper = Value of float | Text of string

(** How this repository measures a record, in its [show] unit: directly,
    or from the {!neuron_reports} that Figures 12 and 13 share. *)
type measure = Plain of (unit -> float) | Neuron of (Hnlpu_neuron.Report.t list -> float)

type t = {
  artifact : string;  (** "Figure 2", ..., "Table 5", or "Side claims". *)
  row : string;  (** Unique within its artifact. *)
  paper : paper;
  show : float -> string;  (** Renders a paper or measured value. *)
  tolerance : tolerance;
  origin : origin;
  measure : measure;
}

val all : t list
(** Every record, grouped by artifact in paper order. *)

val fits : fit list
(** The calibrated constants in dependency order: the [Fitted] origins
    of {!all}, each fitted to one record. *)

val find : string -> string -> t
(** [find artifact row]; raises [Not_found]. *)

val value : t -> float
(** The paper's number; raises [Invalid_argument] on a [Text] record. *)

val printed : t -> string
(** The paper value as the tables print it. *)

val within : t -> float -> bool
(** Whether a measurement meets the record's tolerance. *)

val measures : ?reports:Hnlpu_neuron.Report.t list -> t list -> float list
(** Each record's measurement, in order.  [Neuron] records read
    [reports] when given; otherwise one call builds the
    {!neuron_reports} at most once, whatever number of them it
    measures. *)

val neuron_reports : ?seed:int -> unit -> Hnlpu_neuron.Report.t list
(** The MA / CE / ME reports on the paper's 1024x128 FP4 GEMV. *)
