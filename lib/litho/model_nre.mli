(** Per-model chip counts and mask NRE — the paper's Table 4 ("Chip NRE
    prices on various models").

    Chip capacity is derived from the gpt-oss reference design: 16 chips
    hardwire ~115.6B FP4 parameters, i.e. ~3.61 GB of weight storage per
    chip.  A model needing B bytes of hardwired weights takes B / 3.61 GB
    chips; the mask NRE is the Sea-of-Neurons bill (shared homogeneous set
    + ME reticles per chip).

    Table 4 prices are matched within ~1% using the models' native
    mixed-precision footprints (see {!Hnlpu_model.Config.table4_models})
    and pro-rata chip counts at the pessimistic $30M anchor — the paper
    evidently prices fractional reticle areas pro-rata, since e.g. the
    Llama-3 row ($38M) is below the cost of the homogeneous set plus five
    whole embedding sets. *)

val per_chip_weight_bytes : float
(** ~3.61 GB: hardwired gpt-oss params x 4 bits / 8 / 16 chips. *)

val chips_fractional : Hnlpu_model.Config.t -> float
(** Pro-rata chip count for a model's native footprint. *)

type row = {
  model : string;
  params : float;
  bits_per_param : float;
  weight_bytes : float;
  chips : float;          (** Pro-rata. *)
  nre_usd : float;        (** Sea-of-Neurons initial mask bill. *)
}

val row : Hnlpu_model.Config.t -> row
(** NRE estimate for any model config (pessimistic anchor). *)
