(** The committed lint baseline, the one way to excuse a finding:
    reviewed findings, each with a reason, one
    [RULE<TAB>subject<TAB>reason] line per entry. *)

type entry = { rule : string; subject : string; reason : string }
type t = entry list

val entry : rule:string -> subject:string -> reason:string -> entry

val of_string : string -> t
(** Parses the TSV; raises [Failure] with a line number on a malformed
    line or on a reason that is empty or starts with ["TODO"].  ['#']
    starts a comment. *)

val load : string -> t
(** {!of_string} of a file. *)

val apply : t -> Hnlpu_verify.Diagnostic.t list -> Hnlpu_verify.Diagnostic.t list
(** Downgrades each finding an entry matches by exact (rule, subject)
    to Info with the reason appended, and reports each entry that
    matched nothing as a LINT-BASELINE warning. *)
