(** Configuration of the source-level lint: the ALLOC-HOT hot-path
    registry and the rule families. *)

type hot_kind =
  | Leaf  (** Per-event operation: every allocation in it is an Error. *)
  | Driver
      (** Entry point with a setup prologue: allocation there is Info,
          inside its loops or inner functions an Error. *)

type t = { hot_paths : (string * hot_kind) list }
(** ALLOC-HOT scope: dotted path prefixes such as ["Hnlpu_util.Rng"]. *)

val default_hot_paths : (string * hot_kind) list
(** The library's hot code; an entry naming no binding in a scanned
    library is a LINT-HOTPATH Error. *)

val default : t

val rules : string list
(** The rule families, in report order. *)

val describe : string -> string
(** One-line description of a rule or meta-rule; raises
    [Invalid_argument] on an unknown name. *)

val library : string -> string
(** The library of a dotted path: its first component. *)

val path_matches : prefix:string -> string -> bool
(** [path] extends [prefix] component-wise: ["A.B"] covers ["A.B"] and
    ["A.B.f"] but not ["A.Bc"]. *)

val hot_kind : t -> string -> hot_kind option
(** The grade of the first entry the path extends, if any. *)
