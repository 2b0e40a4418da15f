type row = Cells of string list | Separator

type t = { headers : string list; ncols : int; mutable rows : row list }

let create ~headers = { headers; ncols = List.length headers; rows = [] }

let add_row t cells =
  if List.length cells <> t.ncols then
    invalid_arg
      (Printf.sprintf "Table.add_row: expected %d cells, got %d" t.ncols
         (List.length cells));
  t.rows <- Cells cells :: t.rows

let add_sep t = t.rows <- Separator :: t.rows

(* The first column (the row label) is left-aligned, the numbers right. *)
let pad ~left width s =
  let n = width - String.length s in
  if n <= 0 then s
  else if left then s ^ String.make n ' '
  else String.make n ' ' ^ s

let render t =
  let rows = List.rev t.rows in
  let widths = Array.of_list (List.map String.length t.headers) in
  List.iter
    (function
      | Separator -> ()
      | Cells cs ->
        List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) cs)
    rows;
  let buf = Buffer.create 1024 in
  let hline () =
    Array.iteri
      (fun i w ->
        Buffer.add_string buf (if i = 0 then "+-" else "-+-");
        Buffer.add_string buf (String.make w '-'))
      widths;
    Buffer.add_string buf "-+\n"
  in
  let line cells =
    List.iteri
      (fun i c ->
        Buffer.add_string buf (if i = 0 then "| " else " | ");
        Buffer.add_string buf (pad ~left:(i = 0) widths.(i) c))
      cells;
    Buffer.add_string buf " |\n"
  in
  hline ();
  line t.headers;
  hline ();
  List.iter (function Separator -> hline () | Cells cs -> line cs) rows;
  hline ();
  Buffer.contents buf

let csv_cell s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let to_csv t =
  let buf = Buffer.create 512 in
  let line cells =
    Buffer.add_string buf (String.concat "," (List.map csv_cell cells));
    Buffer.add_char buf '\n'
  in
  line t.headers;
  List.iter (function Separator -> () | Cells cs -> line cs) (List.rev t.rows);
  Buffer.contents buf

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let to_json t =
  let obj cells =
    "{"
    ^ String.concat ","
        (List.map2 (fun h c -> json_string h ^ ":" ^ json_string c) t.headers cells)
    ^ "}"
  in
  let rows =
    List.filter_map
      (function Separator -> None | Cells cs -> Some (obj cs))
      (List.rev t.rows)
  in
  "[" ^ String.concat "," rows ^ "]"

let print ?title t =
  (match title with
  | Some s ->
    print_string s;
    print_newline ();
    print_string (String.make (String.length s) '=');
    print_newline ()
  | None -> ());
  print_string (render t)
