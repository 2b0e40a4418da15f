(** Bounded ring buffer for recorded events.

    Simulations can emit far more events than anyone wants to keep; the
    recorder therefore retains only the most recent [capacity] entries and
    counts what it evicted, so exports can say "N events (M dropped)"
    instead of exhausting memory on long runs. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] when [capacity <= 0]. *)

val push : 'a t -> 'a -> unit
(** Appends, evicting the oldest entry once full. *)

val length : 'a t -> int
(** Entries currently retained. *)

val capacity : 'a t -> int

val pushed : 'a t -> int
(** Total entries ever pushed. *)

val dropped : 'a t -> int
(** [pushed - length]: evicted entries. *)

val to_list : 'a t -> 'a list
(** Retained entries, oldest first. *)
