open Hnlpu_gates

type bound = Optimistic | Pessimistic

let anchor = function
  | Optimistic -> Hnlpu_litho.Mask_cost.Optimistic
  | Pessimistic -> Hnlpu_litho.Mask_cost.Pessimistic

let pick bound lo hi = match bound with Optimistic -> lo | Pessimistic -> hi

let die_area_mm2 = 827.08

let wafer_per_chip_usd () =
  Yield.cost_per_good_die Tech.n5 ~die_area_mm2

let package_test_usd bound =
  let per_wafer = pick bound 3000.0 5000.0 in
  let good = float_of_int (Yield.good_dies_per_wafer Tech.n5 ~die_area_mm2) in
  per_wafer /. good

let hbm_usd bound =
  let per_gb = pick bound 10.0 20.0 in
  per_gb *. 8.0 *. 24.0

let system_integration_usd bound = pick bound 1900.0 3800.0

let recurring_per_chip_usd bound =
  wafer_per_chip_usd () +. package_test_usd bound +. hbm_usd bound
  +. system_integration_usd bound

let design_architecture_usd bound = pick bound 1.87e6 3.74e6
let design_verification_usd bound = pick bound 9.97e6 19.93e6
let design_physical_usd bound = pick bound 4.80e6 14.41e6
let design_ip_usd bound = pick bound 10.23e6 20.46e6

let design_total_usd bound =
  design_architecture_usd bound +. design_verification_usd bound
  +. design_physical_usd bound +. design_ip_usd bound

let electricity_usd_per_kwh = 0.095
let pue = 1.4
let lifetime_hours = 3.0 *. 365.0 *. 24.0
let facility_usd_per_mw = 12.0e6
let grid_kgco2e_per_kwh = 0.38
let embodied_kgco2e_per_module = 124.9

let h100_network_usd_per_node = 45_000.0
let h100_maintenance_rate_per_year = 0.05
let h100_license_usd_per_gpu_per_year = 5_873.33

let hnlpu_network_usd_per_chip = h100_network_usd_per_node /. 8.0
