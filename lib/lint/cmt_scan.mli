(** Discovery and loading of the compiler's typedtrees ([.cmt] and
    [.cmti] files), in sorted, deduplicated order. *)

type source = {
  modname : string;  (** Normalized: ["Hnlpu_util__Rng"] is ["Hnlpu_util.Rng"]. *)
  sourcefile : string;
  structure : Typedtree.structure;
}

val normalize_modname : string -> string
(** ["Hnlpu_util__Rng"] to ["Hnlpu_util.Rng"]. *)

val files : suffix:string -> string list -> string list
(** Every file with [suffix] under the directories, recursively, sorted
    and deduplicated. *)

val load_dirs : string list -> source list * string list
(** The implementations under the directories (dune's generated alias
    modules skipped), and the files that could not be read. *)

type interface = { imodname : string; signature : Typedtree.signature }

val load_interfaces : string list -> interface list * string list
(** As {!load_dirs}, for the [.cmti] interfaces. *)

val missing_cmts : string list -> string list
(** Interfaces under the directories that have no [.cmt] beside them. *)
