open Hnlpu_gates
open Hnlpu_model

let tech = Tech.n5

type t = {
  cmac_transistors : int;
  area_mm2 : float;
  chips : int;
  mask_cost_usd : float;
}

let paper_cmac_transistors = 208

let estimate config =
  let params = Params.hardwired config in
  let area_mm2 =
    params *. float_of_int paper_cmac_transistors
    /. tech.Tech.transistor_density_per_mm2
  in
  let chips = int_of_float (ceil (area_mm2 /. tech.Tech.reticle_limit_mm2)) in
  {
    cmac_transistors = paper_cmac_transistors;
    area_mm2;
    chips;
    mask_cost_usd = Mask_cost.full_custom Mask_cost.Pessimistic ~chips;
  }

type amortization = {
  label : string;
  mask_sets : int;
  mask_bill_usd : float;
  wafers : int;
  wafer_bill_usd : float;
  units : int;
  cost_per_unit_usd : float;
}

let gpu_economics () =
  (* Figure 2's H100 numbers: 1 set, 20,000 wafers at $18K, 500,000 units. *)
  let mask_bill = 30.0e6 and wafers = 20_000 in
  let wafer_bill = float_of_int wafers *. 18_000.0 in
  let units = 500_000 in
  {
    label = "500,000 GPUs";
    mask_sets = 1;
    mask_bill_usd = mask_bill;
    wafers;
    wafer_bill_usd = wafer_bill;
    units;
    cost_per_unit_usd = (mask_bill +. wafer_bill) /. float_of_int units;
  }

let hardwired_economics config =
  let s = estimate config in
  (* One unit needs [chips] good dies; each wafer yields tens of
     reticle-sized dies, but the dies are all different, so wafer count is
     bounded below by exposure-field assortment: ~5 wafers (Figure 2). *)
  let wafers = 5 in
  let wafer_bill = float_of_int wafers *. 18_000.0 in
  {
    label = "1 Hardwired LLM";
    mask_sets = s.chips;
    mask_bill_usd = s.mask_cost_usd;
    wafers;
    wafer_bill_usd = wafer_bill;
    units = 1;
    cost_per_unit_usd = s.mask_cost_usd +. wafer_bill;
  }
