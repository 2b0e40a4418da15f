(** SRAM macro model: area, access energy and leakage.

    Used for the 64 KB weight buffer of the MAC-array baseline (Fig. 12/13)
    and the 320 MB attention buffer (Table 1). *)

type t = {
  capacity_bits : int;
  word_bits : int;  (** Bits delivered per read access. *)
}

val make : capacity_bytes:int -> word_bits:int -> unit -> t

val area_mm2 : Tech.t -> t -> float
(** Macro area: bit-cell array divided by the macro efficiency factor. *)

val read_energy_j : Tech.t -> t -> float
(** Energy of one word read. *)

val leakage_w : Tech.t -> t -> float

val reads_to_stream : t -> total_bits:int -> int
(** Number of read accesses to stream [total_bits] through the port. *)

val capacity_bytes : t -> int
