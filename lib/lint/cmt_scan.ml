(* Discovery and loading of [.cmt] files (compiler typedtrees).

   Dune already compiles everything with [-bin-annot], so the build tree
   holds a [.cmt] per module under [.<lib>.objs/byte/]; the lint engine
   reads those rather than re-typing sources, which keeps it exact (the
   typedtree has resolved paths and instantiated types) and free — no
   second frontend, no parser drift.

   Loading is deterministic: files are discovered in sorted order,
   deduplicated by compilation unit and source file, and generated
   wrapper modules (dune's [Lib__] aliases, with no real source file) are
   skipped.  Interfaces ([.cmti], one per [.mli]) are loaded the same
   way for DEAD-EXPORT. *)

type source = {
  modname : string;  (* normalized: "Hnlpu_util__Rng" -> "Hnlpu_util.Rng" *)
  sourcefile : string;
  structure : Typedtree.structure;
}

(* "Hnlpu_util__Rng" -> "Hnlpu_util.Rng" *)
let normalize_modname m =
  let parts = ref [] in
  let buf = Buffer.create (String.length m) in
  let n = String.length m in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && m.[!i] = '_' && m.[!i + 1] = '_' then begin
      parts := Buffer.contents buf :: !parts;
      Buffer.clear buf;
      i := !i + 2
    end
    else begin
      Buffer.add_char buf m.[!i];
      incr i
    end
  done;
  parts := Buffer.contents buf :: !parts;
  String.concat "." (List.rev !parts)

let rec find_files ~suffix dir acc =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then find_files ~suffix path acc
        else if Filename.check_suffix entry suffix then path :: acc
        else acc)
      acc entries

let files ~suffix dirs =
  List.concat_map (fun d -> List.rev (find_files ~suffix d [])) dirs
  |> List.sort_uniq String.compare

(* Read every file with [suffix] under [dirs] through [keep]; returns
   what it kept and the files that could not be read. *)
let read_all ~suffix dirs keep =
  let failed = ref [] in
  let kept =
    List.filter_map
      (fun path ->
        match Cmt_format.read_cmt path with
        | exception e ->
          (* Unreadable cmt data (version-mismatched or truncated) is
             not fatal: it becomes a LINT-LOAD diagnostic downstream,
             carrying the exception so nothing is silently dropped. *)
          failed := Printf.sprintf "%s (%s)" path (Printexc.to_string e) :: !failed;
          None
        | infos -> keep infos)
      (files ~suffix dirs)
  in
  (kept, List.rev !failed)

(* Load every analyzable module under [dirs]; returns modules sorted by
   name and the list of files that could not be read. *)
let load_dirs dirs : source list * string list =
  let mods, failed =
    read_all ~suffix:".cmt" dirs (fun infos ->
        match (infos.Cmt_format.cmt_annots, infos.Cmt_format.cmt_sourcefile) with
        | Cmt_format.Implementation structure, Some sourcefile
          when not (Filename.check_suffix sourcefile ".ml-gen") ->
          Some { modname = normalize_modname infos.Cmt_format.cmt_modname; sourcefile; structure }
        | _ -> None)
  in
  let key m = (m.modname, m.sourcefile) in
  (List.sort_uniq (fun a b -> compare (key a) (key b)) mods, failed)

type interface = { imodname : string; signature : Typedtree.signature }

(* Every interface under [dirs] and the files that could not be read. *)
let load_interfaces dirs : interface list * string list =
  let intfs, failed =
    read_all ~suffix:".cmti" dirs (function
      | { Cmt_format.cmt_annots = Cmt_format.Interface signature; cmt_modname; _ } ->
        Some { imodname = normalize_modname cmt_modname; signature }
      | _ -> None)
  in
  (List.sort_uniq (fun a b -> String.compare a.imodname b.imodname) intfs, failed)

(* Interfaces under [dirs] whose unit has no [.cmt] beside them: dune
   writes [.cmt] files for every unit only under [dune build @check]. *)
let missing_cmts dirs =
  List.filter
    (fun cmti -> not (Sys.file_exists (Filename.chop_suffix cmti ".cmti" ^ ".cmt")))
    (files ~suffix:".cmti" dirs)
