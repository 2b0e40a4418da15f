(** Minimal JSON rendering helpers shared by the telemetry exporters.

    The observability layer emits JSON that strict parsers must accept
    (Chrome trace viewers, Perfetto, the tests), so everything funnels
    through these combinators: strings are RFC 8259-escaped and non-finite
    floats — which JSON cannot represent — render as [null].  Values are
    built as already-rendered strings; no intermediate tree. *)

val string : string -> string
(** A quoted, escaped JSON string literal. *)

val int : int -> string

val number : float -> string
(** Finite floats in shortest-ish decimal form ([%.0f] for integers,
    [%.12g] otherwise — both valid JSON numbers); NaN and infinities
    render as [null]. *)

val bool : bool -> string

val obj : (string * string) list -> string
(** [obj fields] with already-rendered member values. *)

val arr : string list -> string
(** [arr items] with already-rendered items. *)
