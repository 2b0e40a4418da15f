(* The committed lint baseline: findings that were reviewed and accepted,
   each with a reason.

   Format, one entry per line, tab-separated:

     RULE<TAB>subject<TAB>reason

   '#' starts a comment; blank lines are ignored.  Matching is by
   (rule, subject) — the subject is a qualified binding path such as
   "Hnlpu_util.Rng.next_int64", stable across line-number churn — and a
   matched finding is downgraded to Info with the reason appended, so
   the CI gate (which fails on Error) passes while the acceptance stays
   visible in the JSON report.  Entries that match nothing are reported
   as LINT-BASELINE warnings: a stale suppression hides future
   regressions under an obsolete excuse.  Only entries of scanned
   libraries are judged, so a scan scoped with [--dir] stays quiet about
   the rest of the baseline. *)

module D = Hnlpu_verify.Diagnostic

type entry = { rule : string; subject : string; reason : string }
type t = entry list

let entry ~rule ~subject ~reason = { rule; subject; reason }

let of_string s : t =
  let parse lineno line =
    let trimmed = String.trim line in
    if trimmed = "" || trimmed.[0] = '#' then None
    else
      match String.split_on_char '\t' line with
      | rule :: subject :: reason ->
        let reason = String.trim (String.concat "\t" reason) in
        if reason = "" then
          failwith
            (Printf.sprintf
               "baseline line %d: empty reason — every accepted finding \
                must say why"
               lineno)
        else Some { rule = String.trim rule; subject = String.trim subject; reason }
      | _ ->
        failwith
          (Printf.sprintf
             "baseline line %d: expected RULE<TAB>subject<TAB>reason, got %S"
             lineno line)
  in
  String.split_on_char '\n' s
  |> List.mapi (fun i line -> parse (i + 1) line)
  |> List.filter_map Fun.id

let to_string (t : t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "# hnlpu lint baseline: RULE<TAB>subject<TAB>reason.  Matched findings\n\
     # are downgraded to Info; stale entries surface as LINT-BASELINE.\n";
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%s\t%s\t%s\n" e.rule e.subject e.reason))
    t;
  Buffer.contents buf

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let save path (t : t) =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string t))

(* Downgrade baselined findings to Info (reason appended) and append a
   LINT-BASELINE warning per stale entry of a scanned library ([libs]).
   An entry of any other library is not judged: nothing was scanned that
   could have matched it. *)
let apply ~libs (t : t) ds =
  let used = Array.make (List.length t) false in
  let lookup d =
    let rec go i = function
      | [] -> None
      | e :: rest ->
        if String.equal e.rule d.D.rule && String.equal e.subject d.D.subject
        then begin
          used.(i) <- true;
          Some e
        end
        else go (i + 1) rest
    in
    go 0 t
  in
  let downgraded =
    List.map
      (fun d ->
        if d.D.severity = D.Info then d
        else
          match lookup d with
          | None -> d
          | Some e ->
            D.info ~rule:d.D.rule ~subject:d.D.subject "%s [baselined: %s]"
              d.D.message e.reason)
      ds
  in
  let stale =
    List.concat
      (List.mapi
         (fun i e ->
           if used.(i) || not (List.mem (Lint_config.library e.subject) libs) then []
           else
             [
               D.warning ~rule:"LINT-BASELINE" ~subject:e.subject
                 "stale baseline entry for %s matched no finding — remove \
                  it (reason was: %s)"
                 e.rule e.reason;
             ])
         t)
  in
  downgraded @ stale

(* Entries that would silence every Error currently firing — the
   starting point `lint --update-baseline` writes; reasons must then be
   filled in by hand. *)
let of_errors ds =
  List.filter_map
    (fun d ->
      if d.D.severity = D.Error then
        Some { rule = d.D.rule; subject = d.D.subject; reason = "TODO: justify" }
      else None)
    (D.normalize ds)
  |> List.sort_uniq (fun a b ->
         match String.compare a.rule b.rule with
         | 0 -> String.compare a.subject b.subject
         | c -> c)
