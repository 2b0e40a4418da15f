(** The ALLOC-HOT, DET-SRC, PAR-ESCAPE and EXN-SWALLOW rule families,
    run over one typedtree. *)

val loc_string : Location.t -> string
(** ["file:line"]. *)

val lint_structure :
  config:Lint_config.t -> modname:string -> Typedtree.structure ->
  Hnlpu_verify.Diagnostic.t list * string list
(** The findings in one module, and the qualified paths of every binding
    it defines (for judging hot-path entries stale). *)
