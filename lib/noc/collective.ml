open Hnlpu_tensor

type valued = (Topology.chip * Vec.t) list

let check_group = function
  | [] -> invalid_arg "Collective: empty group"
  | (_, v0) :: rest ->
    let n = Array.length v0 in
    List.iter
      (fun (c, v) ->
        if not (Topology.valid c) then invalid_arg "Collective: invalid chip";
        if Array.length v <> n then invalid_arg "Collective: ragged values")
      rest

let sum vals =
  check_group vals;
  match vals with
  | [] -> assert false
  | (_, v0) :: rest ->
    let acc = Array.copy v0 in
    List.iter (fun (_, v) -> Vec.add_inplace acc v) rest;
    acc

let all_reduce vals =
  let s = sum vals in
  List.map (fun (c, _) -> (c, Array.copy s)) vals
