type anchor = Optimistic | Pessimistic

let full_set_usd = function Optimistic -> 15.0e6 | Pessimistic -> 30.0e6

(* The N5 stack's unit sums, folded once rather than on every price. *)
let total_units = Layer_stack.total_units Layer_stack.n5_stack

let embedding_units = Layer_stack.embedding_units Layer_stack.n5_stack

let unit_price anchor = full_set_usd anchor /. total_units

let homogeneous_cost anchor = unit_price anchor *. (total_units -. embedding_units)

let embedding_cost_per_chip anchor = unit_price anchor *. embedding_units

let check_chips chips =
  if chips <= 0 then invalid_arg "Mask_cost: chips must be positive"

let sea_of_neurons_initial anchor ~chips =
  check_chips chips;
  homogeneous_cost anchor +. (float_of_int chips *. embedding_cost_per_chip anchor)

let sea_of_neurons_respin anchor ~chips =
  check_chips chips;
  float_of_int chips *. embedding_cost_per_chip anchor

let full_custom anchor ~chips =
  check_chips chips;
  float_of_int chips *. full_set_usd anchor

let initial_saving_fraction anchor ~chips =
  1.0 -. (sea_of_neurons_initial anchor ~chips /. full_custom anchor ~chips)

let respin_saving_fraction anchor ~chips =
  1.0 -. (sea_of_neurons_respin anchor ~chips /. full_custom anchor ~chips)
