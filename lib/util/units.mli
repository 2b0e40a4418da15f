(** Engineering-unit formatting and conversions.

    All performance/cost models in this repository work in SI base units
    (seconds, joules, meters², dollars) and convert only at the printing
    boundary, using these helpers. *)

val si : ?digits:int -> float -> string
(** [si x] renders [x] with an SI prefix, e.g. [si 2.5e9 = "2.50G"].
    Covers f(emto) .. P(eta); values outside fall back to scientific
    notation.  [digits] defaults to [2]. *)

val seconds : float -> string
(** Time with unit, e.g. ["4.00us"], ["864us"], ["1.5ms"]. *)

val watts : float -> string

val bytes : float -> string
(** Binary-ish rendering using decimal SI prefixes (KB = 1e3), matching how
    the paper quotes bandwidths and capacities. *)

val dollars : float -> string
(** Money with magnitude suffix: ["$ 629"], ["$ 27.69M"], ["$ 6.00B"]. *)

val dollars_m : float -> string
(** Money rendered in millions with 4 significant digits, the paper's
    convention in Tables 3 and 5 (e.g. ["59.46M"]). *)

val percent : ?digits:int -> float -> string
(** [percent 0.693 = "69.3%"]. *)

val ratio : ?digits:int -> float -> string
(** Multiplier rendering: ["5555x"], ["0.95x"]. *)

val round_sig : int -> float -> float
(** [round_sig n x] rounds [x] to [n] significant digits (paper rounds all
    Table 3 figures to four significant digits). *)

val group_thousands : int -> string
(** ["249,960"]-style integer rendering. *)
