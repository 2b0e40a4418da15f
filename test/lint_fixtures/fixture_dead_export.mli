(* DEAD-EXPORT fixture: [Fixture_clean] references [used] and passes
   [scaled]'s [?offset]; nothing references [unused] or passes [?never].
   Both of those must be Errors, and nothing else here may fire. *)

val used : int -> int
val unused : int -> int
val scaled : ?offset:int -> ?never:int -> int -> int
