(** Plain-text table rendering for experiment reports.

    The benchmark harness and CLI print every reproduced paper table through
    this module so all outputs share one visual format. *)

type t

val create : headers:string list -> t
(** New table with the given column headers.  Column count is fixed by the
    header list; rows with a different arity raise [Invalid_argument]. *)

val add_row : t -> string list -> unit

val add_sep : t -> unit
(** Horizontal separator row, for grouping (as in the paper's Table 3). *)

val render : t -> string
(** Render with box-drawing rules: the first column left-aligned, the rest
    right-aligned — the usual label-then-numbers layout. *)

val print : ?title:string -> t -> unit
(** [render] to stdout, optionally preceded by an underlined title. *)

val to_csv : t -> string
(** RFC-4180-style CSV: header row then data rows (separators dropped);
    cells containing commas, quotes or newlines are quoted. *)

val to_json : t -> string
(** An array of objects keyed by the headers (separators dropped); all
    values are JSON strings, escaped per RFC 8259. *)
