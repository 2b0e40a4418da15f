(* DEAD-EXPORT fixture: [Fixture_clean] references [used] and passes
   [scaled]'s [?offset], and [Fixture_det_src] reaches [renamed] only
   through [Fixture_clean]'s renaming alias; nothing references [unused]
   or passes [?never].  Both of those must be Errors, and nothing else
   here may fire. *)

val used : int -> int
val unused : int -> int
val renamed : int -> int
val scaled : ?offset:int -> ?never:int -> int -> int
