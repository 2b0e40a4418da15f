open Hnlpu_litho

let chips_per_system = Hnlpu_noc.Topology.chips

let mask_homogeneous bound = Mask_cost.homogeneous_cost (Pricing.anchor bound)

let mask_me bound =
  Mask_cost.sea_of_neurons_respin (Pricing.anchor bound) ~chips:chips_per_system

let mask_nre_usd bound = mask_homogeneous bound +. mask_me bound

let nre_total_usd bound = mask_nre_usd bound +. Pricing.design_total_usd bound

let recurring_for bound ~systems =
  float_of_int (systems * chips_per_system) *. Pricing.recurring_per_chip_usd bound

let initial_build_usd bound ~systems =
  if systems <= 0 then invalid_arg "Cost_breakdown.initial_build_usd";
  nre_total_usd bound +. recurring_for bound ~systems

let respin_usd bound ~systems =
  if systems <= 0 then invalid_arg "Cost_breakdown.respin_usd";
  mask_me bound +. recurring_for bound ~systems

