(** Carry-save adder (CSA) trees (paper §3.1, Figure 3 right).

    Bit-serialized HN accumulation unfolds into a Wallace-style tree of 3:2
    compressors.  This module reduces a multiset of non-negative integers
    exactly, while counting the hardware the reduction would take: full
    adders, half adders, tree depth (compression rounds) and the width of
    the final carry-propagate adder.  The counts feed the area/energy census
    in {!Hnlpu_gates}; the arithmetic result feeds bit-exactness tests. *)

type stats = {
  full_adders : int;    (** 3:2 compressors consumed. *)
  half_adders : int;    (** 2:2 compressors consumed. *)
  depth : int;          (** Compression rounds until every column has <= 2 bits. *)
  cpa_width : int;      (** Width of the final carry-propagate adder. *)
}

val tree : width:int -> operands:int -> stats
(** [tree ~width ~operands]: the hardware of a tree reducing [operands]
    integers of [width] bits, which depends on that shape alone.  No
    operands need no adders. *)

val reduce : width:int -> int array -> int * stats
(** [reduce ~width xs] sums the integers [xs], each of which must lie in
    [\[0, 2^width)], through bit-level 3:2 compression.  Returns the exact
    sum and [tree ~width ~operands:(Array.length xs)].  An empty input sums
    to 0. *)
