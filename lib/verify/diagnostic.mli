(** Typed signoff diagnostics.

    Every rule in {!Netlist_rules}, {!Noc_rules} and {!System_rules} emits
    values of this one type: a stable rule ID (["ME-TRACK"], ["NOC-LINK"],
    ...), a severity, the artifact it concerns, and a human message.  The
    collection renders as a human report, as machine-readable JSON, and as
    a severity-based exit code — the contract the [hnlpu check] CLI gate
    and CI enforce. *)

type severity = Info | Warning | Error

type t = {
  rule : string;       (** Stable rule ID, e.g. "ME-TRACK". *)
  severity : severity;
  subject : string;    (** The artifact checked, e.g. "chip03". *)
  message : string;
}

val make :
  rule:string -> severity:severity -> subject:string ->
  ('a, unit, string, t) format4 -> 'a

val error : rule:string -> subject:string -> ('a, unit, string, t) format4 -> 'a
val warning : rule:string -> subject:string -> ('a, unit, string, t) format4 -> 'a
val info : rule:string -> subject:string -> ('a, unit, string, t) format4 -> 'a

val severity_label : severity -> string
(** "ERROR" / "WARN" / "INFO". *)

val rank : severity -> int
(** Info 0, Warning 1, Error 2 — the comparison order used by gates that
    accept a minimum severity. *)

val count : severity -> t list -> int

val has_rule : ?min_severity:severity -> string -> t list -> bool
(** Is a diagnostic with this rule ID (at least this severe, default
    [Info]) present? *)

val exit_code : t list -> int
(** 0 when nothing is worse than [Info], 1 when the worst is a [Warning],
    2 when any [Error] is present — the [hnlpu check] process exit code. *)

val report : ?show_info:bool -> t list -> string
(** Human report: one line per diagnostic (errors first) plus a summary
    tally.  [show_info] defaults to [true]. *)

val normalize : t list -> t list
(** Stable order (errors first, then rule/subject/message) with exact
    [(rule, subject, message)] duplicates deduplicated — applied by
    {!to_json} so repeated checks of one design export byte-identically. *)

val to_json : t list -> string
(** Machine-readable rendering: a JSON array of
    [{"rule":..,"severity":..,"subject":..,"message":..}] objects, in
    {!normalize} order. *)
