(** Plain-text charts, so [hnlpu tables] can render the paper's
    *figures* as figures, not only as tables. *)

val bar : ?log:bool -> (string * float) list -> string
(** Horizontal bar chart, 50 characters at full scale.  [log] (default false) scales bars
    logarithmically — Figure 13's energy axis is log-scale.  Values must
    be non-negative ([log] requires positive). *)

val stacked :
  ?width:int -> legend:string list -> (string * float list) list -> string
(** 100%-stacked horizontal bars (Figure 14's breakdown): each row's
    segments are normalized to the row total and drawn with a distinct
    fill character per legend entry. *)

val sparkline : float array -> string
(** One-line trend using block characters (ASCII fallback: .:-=+*#%@). *)
