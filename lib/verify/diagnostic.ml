type severity = Info | Warning | Error

type t = { rule : string; severity : severity; subject : string; message : string }

let make ~rule ~severity ~subject fmt =
  Printf.ksprintf (fun message -> { rule; severity; subject; message }) fmt

let error ~rule ~subject fmt = make ~rule ~severity:Error ~subject fmt
let warning ~rule ~subject fmt = make ~rule ~severity:Warning ~subject fmt
let info ~rule ~subject fmt = make ~rule ~severity:Info ~subject fmt

let severity_label = function Error -> "ERROR" | Warning -> "WARN" | Info -> "INFO"

let rank = function Info -> 0 | Warning -> 1 | Error -> 2

let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)

let has_rule ?(min_severity = Info) rule ds =
  List.exists (fun d -> d.rule = rule && rank d.severity >= rank min_severity) ds

let worst = function
  | [] -> None
  | d :: ds ->
    Some
      (List.fold_left
         (fun acc x -> if rank x.severity > rank acc then x.severity else acc)
         d.severity ds)

let exit_code ds =
  match worst ds with Some Error -> 2 | Some Warning -> 1 | Some Info | None -> 0

let to_string d =
  Printf.sprintf "[%s %s] %s: %s" (severity_label d.severity) d.rule d.subject
    d.message

let report ~gate ?(show_info = true) ds =
  let shown = if show_info then ds else List.filter (fun d -> d.severity <> Info) ds in
  (* Errors first, then warnings, then infos; stable within a severity so
     diagnostics stay in rule-emission order. *)
  let ordered =
    List.stable_sort (fun a b -> compare (rank b.severity) (rank a.severity)) shown
  in
  let buf = Buffer.create 1024 in
  List.iter
    (fun d ->
      Buffer.add_string buf (to_string d);
      Buffer.add_char buf '\n')
    ordered;
  Buffer.add_string buf
    (Printf.sprintf "%s: %d error(s), %d warning(s), %d info\n" gate
       (count Error ds) (count Warning ds) (count Info ds));
  Buffer.contents buf

let normalize ds =
  (* Errors first, then by rule/subject/message; exact duplicates (the same
     rule firing identically from two passes, or one check run twice)
     collapse — so two runs over the same design serialize byte-identically
     regardless of rule-family emission order. *)
  List.sort_uniq
    (fun a b ->
      match compare (rank b.severity) (rank a.severity) with
      | 0 -> compare (a.rule, a.subject, a.message) (b.rule, b.subject, b.message)
      | c -> c)
    ds

let to_json ds =
  let item d =
    Printf.sprintf "  {\"rule\": %s, \"severity\": \"%s\", \"subject\": %s, \"message\": %s}"
      (Hnlpu_obs.Json.string d.rule)
      (String.lowercase_ascii (severity_label d.severity))
      (Hnlpu_obs.Json.string d.subject) (Hnlpu_obs.Json.string d.message)
  in
  "[\n" ^ String.concat ",\n" (List.map item (normalize ds)) ^ "\n]\n"
