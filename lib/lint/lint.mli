(** The lint driver: discover [.cmt] files, run the rule families, and
    self-test against the seeded fixtures. *)

val default_scan_dirs : string list
val default_ref_dirs : string list
(** Every unit whose references keep a library export alive. *)

val default_fixture_dirs : string list

val run :
  ?config:Lint_config.t -> dirs:string list -> refs:string list -> unit ->
  Hnlpu_verify.Diagnostic.t list
(** Lints every module under [dirs] and judges DEAD-EXPORT against the
    reference units under [refs].  Raises [Failure] when [dirs] hold no
    [.cmt]. *)

val fixture_expectations : (string * string * Hnlpu_verify.Diagnostic.severity) list
(** (rule, fixture module, least severity) each family must reach. *)

val fixture_config : Lint_config.t
(** The fixtures' hot paths, one of them planted stale. *)

val dead_fixture_exports : string list
(** The DEAD-EXPORT subjects the fixture must produce, exactly. *)

val self_test :
  dirs:string list -> unit ->
  (string * bool) list * bool * Hnlpu_verify.Diagnostic.t list
(** (family, caught) per rule family and planted case, whether the clean
    fixture is clean, and every finding. *)
