let prefixes =
  [| (1e15, "P"); (1e12, "T"); (1e9, "G"); (1e6, "M"); (1e3, "k"); (1.0, "");
     (1e-3, "m"); (1e-6, "u"); (1e-9, "n"); (1e-12, "p"); (1e-15, "f") |]

let si ?(digits = 2) x =
  if x = 0.0 then Printf.sprintf "%.*f" digits 0.0
  else begin
    let mag = Float.abs x in
    let rec find i =
      if i >= Array.length prefixes - 1 then i
      else if mag >= fst prefixes.(i) then i
      else find (i + 1)
    in
    if mag >= 1e18 || mag < 1e-16 then Printf.sprintf "%.*e" digits x
    else begin
      let scale, p = prefixes.(find 0) in
      Printf.sprintf "%.*f%s" digits (x /. scale) p
    end
  end

let with_unit unit x = si x ^ unit

let seconds = with_unit "s"
let watts = with_unit "W"
let bytes = with_unit "B"

let dollars x =
  let mag = Float.abs x in
  if mag >= 1e9 then Printf.sprintf "$ %.2fB" (x /. 1e9)
  else if mag >= 1e6 then Printf.sprintf "$ %.2fM" (x /. 1e6)
  else if mag >= 1e3 then Printf.sprintf "$ %.1fK" (x /. 1e3)
  else Printf.sprintf "$ %.0f" x

let round_sig n x =
  if x = 0.0 || Float.is_nan x then x
  else begin
    let mag = Float.abs x in
    let scale = 10.0 ** float_of_int (n - 1 - int_of_float (floor (log10 mag))) in
    Float.round (x *. scale) /. scale
  end

let dollars_m x =
  let m = round_sig 4 (x /. 1e6) in
  if Float.abs m >= 1000.0 then Printf.sprintf "%.0fM" m
  else if Float.abs m >= 100.0 then Printf.sprintf "%.1fM" m
  else if Float.abs m >= 10.0 then Printf.sprintf "%.2fM" m
  else Printf.sprintf "%.4gM" m

let percent x = Printf.sprintf "%.1f%%" (x *. 100.0)

let group_thousands n =
  let s = string_of_int (abs n) in
  let len = String.length s in
  let buf = Buffer.create (len + (len / 3)) in
  if n < 0 then Buffer.add_char buf '-';
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

let grouped x = group_thousands (Float.to_int (Float.round x))
