(** The straw-man hardwired LPU of §2.2: a cell-embedding CMAC grid with
    one full photomask set per chip — the $6B estimate that motivates
    Metal-Embedding, and the Figure 2 economics comparison. *)

type t = {
  cmac_transistors : int;  (** Per-weight cost; the paper's "200+" = 208. *)
  area_mm2 : float;        (** Total CMAC grid silicon. *)
  chips : int;             (** Reticle-limited die count. *)
  mask_cost_usd : float;   (** One full set per heterogeneous chip. *)
}

val estimate : Hnlpu_model.Config.t -> t
(** Straw-man for a model: area = hardwired params x 208 T at raw density
    (the paper's "most optimistic estimation" uses no utilization derate),
    chips = area / reticle limit, masks = chips x full set at the
    pessimistic anchor ($30M), matching the paper's $6B quote. *)

(** {1 Figure 2: amortization} *)

type amortization = {
  label : string;
  mask_sets : int;
  mask_bill_usd : float;
  wafers : int;
  wafer_bill_usd : float;
  units : int;
  cost_per_unit_usd : float;
}

val gpu_economics : unit -> amortization
(** The H100 side of Figure 2: one $30M set, 20,000 wafers at $18K,
    ~500,000 units -> $780/unit. *)

val hardwired_economics : Hnlpu_model.Config.t -> amortization
(** The straw-man side: ~200 sets, ~5 wafers, 1 unit -> ~$6B/unit. *)
