(* The committed lint baseline: the one way to excuse a finding.  Each
   entry records a reviewed finding and why it is accepted.

   Format, one entry per line, tab-separated:

     RULE<TAB>subject<TAB>reason

   '#' starts a comment; blank lines are ignored.  A reason that is
   empty or starts with "TODO" is refused with its line number.
   Matching is by exact (rule, subject) — the subject is a qualified
   binding path such as "Hnlpu_util.Rng.next_int64", stable across
   line-number churn, and an entry for a function does not cover the
   helpers nested in it — and a matched finding is downgraded to Info
   with the reason appended, so the lint gate (which fails on Error)
   passes while the acceptance stays visible in the JSON report.
   Entries that match nothing are reported as LINT-BASELINE warnings: a
   stale suppression hides future regressions under an obsolete
   excuse. *)

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
        if reason = "" || String.starts_with ~prefix:"TODO" reason then
          failwith
            (Printf.sprintf
               "baseline line %d: %s reason — every accepted finding \
                must say why"
               lineno
               (if reason = "" then "empty" else "placeholder"))
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

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

(* Downgrade baselined findings to Info (reason appended) and append a
   LINT-BASELINE warning per entry that matched nothing. *)
let apply (t : t) ds =
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
           if used.(i) then []
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
