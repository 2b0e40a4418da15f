(** The committed lint baseline: reviewed findings, each with a reason,
    one [RULE<TAB>subject<TAB>reason] line per entry. *)

type entry = { rule : string; subject : string; reason : string }
type t = entry list

val entry : rule:string -> subject:string -> reason:string -> entry

val of_string : string -> t
(** Parses the TSV; raises [Failure] with a line number on a malformed
    line.  ['#'] starts a comment. *)

val to_string : t -> string

val load : string -> t
(** {!of_string} of a file. *)

val save : string -> t -> unit

val apply :
  libs:string list -> t -> Hnlpu_verify.Diagnostic.t list -> Hnlpu_verify.Diagnostic.t list
(** Downgrades each finding an entry matches by (rule, subject) to Info
    with the reason appended, and reports each entry of a library in
    [libs] that matched nothing as a LINT-BASELINE warning. *)

val of_errors : Hnlpu_verify.Diagnostic.t list -> t
(** One entry per Error, with a placeholder reason to fill in. *)
