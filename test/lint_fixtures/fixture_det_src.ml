(* DET-SRC fixture: every nondeterminism source the sweep layer bans.
   The Hashtbl-order dependence is the canonical seeded bug (satellite
   spec): the fold result depends on bucket order, which is unspecified,
   so two runs can disagree even on identical inputs. *)

let order_dependent_sum tbl =
  (* Hashtbl.fold visits bindings in unspecified order; string concat
     makes that order observable in the result. *)
  Hashtbl.fold (fun k v acc -> acc ^ k ^ string_of_int v) tbl ""

let observe_all tbl =
  let seen = ref [] in
  Hashtbl.iter (fun k _ -> seen := k :: !seen) tbl;
  !seen

let jitter () =
  (* Stdlib Random: global mutable state, not derived from the workload
     seed — the exact bug class Util.Rng.derive exists to prevent. *)
  Random.float 1.0

let stamp () =
  (* Wall-clock read: any result derived from it is unreproducible. *)
  Sys.time ()

(* Not a DET-SRC case: the DEAD-EXPORT fixture's [renamed] is referenced
   only here, through another unit's renaming alias. *)
let doubled x = Fixture_clean.Dead.renamed x
