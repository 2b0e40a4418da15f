open Hnlpu_model

let reference_chips = 16.0

let per_chip_weight_bytes =
  Params.hardwired Config.gpt_oss_120b
  *. Config.gpt_oss_120b.Config.bits_per_param /. 8.0 /. reference_chips

let chips_fractional (c : Config.t) =
  Params.total c *. c.Config.bits_per_param /. 8.0 /. per_chip_weight_bytes

type row = {
  model : string;
  params : float;
  bits_per_param : float;
  weight_bytes : float;
  chips : float;
  nre_usd : float;
  paper_nre_usd : float option;
}

let paper_prices =
  [ ("Kimi-K2", 462.0e6); ("DeepSeek-V3", 353.0e6); ("QwQ", 69.0e6); ("Llama-3", 38.0e6) ]

let row (c : Config.t) =
  let frac = chips_fractional c in
  let nre =
    Mask_cost.homogeneous_cost Mask_cost.Pessimistic
    +. (frac *. Mask_cost.embedding_cost_per_chip Mask_cost.Pessimistic)
  in
  {
    model = c.Config.name;
    params = Params.total c;
    bits_per_param = c.Config.bits_per_param;
    weight_bytes = Params.bytes c;
    chips = frac;
    nre_usd = nre;
    paper_nre_usd = List.assoc_opt c.Config.name paper_prices;
  }

let table4 () = List.map row Config.table4_models
