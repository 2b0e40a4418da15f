(** Logic-depth to clock-cycle conversion shared by the three machines.

    At the paper's 1 GHz sign-off frequency a 5 nm pipeline stage fits on
    the order of 16 FO4-equivalent gate levels; a full adder contributes two
    levels (majority + parity), a W-bit carry-lookahead adder 2*ceil(log2 W). *)

val fa_levels : int

val cpa_levels : int -> int
(** Levels of a carry-lookahead CPA of the given width (0 for width 0). *)

val cycles_of_levels : int -> int
(** Ceiling division by {!levels_per_cycle}, at least 1 for positive input. *)

val csa_levels : Hnlpu_fp4.Csa.stats -> int
(** Total combinational depth of a CSA tree: compression rounds plus the
    final carry-propagate adder. *)
