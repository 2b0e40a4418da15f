type 'a t = {
  data : 'a option array;
  cap : int;
  mutable head : int;   (* index of the oldest entry *)
  mutable len : int;
  mutable pushed : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { data = Array.make capacity None; cap = capacity; head = 0; len = 0; pushed = 0 }

let push t x =
  t.pushed <- t.pushed + 1;
  if t.len < t.cap then begin
    t.data.((t.head + t.len) mod t.cap) <- Some x;
    t.len <- t.len + 1
  end
  else begin
    t.data.(t.head) <- Some x;
    t.head <- (t.head + 1) mod t.cap
  end

let length t = t.len

let capacity t = t.cap

let pushed t = t.pushed

let dropped t = t.pushed - t.len

let get t i =
  match t.data.((t.head + i) mod t.cap) with
  | Some x -> x
  | None -> assert false (* i < len implies the slot is filled *)

let to_list t = List.init t.len (get t)
