(** DEAD-EXPORT: exported values that no other unit references, and
    optional parameters that no call passes. *)

val check :
  interfaces:Cmt_scan.interface list -> units:Cmt_scan.source list ->
  Hnlpu_verify.Diagnostic.t list
(** Judges every [val] of [interfaces] against the references in
    [units]: an Error when nothing references it, Info when only tests
    do. *)
