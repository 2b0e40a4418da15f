(** The on-chip Attention Buffer (paper §4.3): 320 MB of SRAM organized as
    20,000 banks of 16 KB, each 1W1R with 32-bit ports — the KV cache of the
    chip's assigned attention groups, spilling to HBM beyond capacity.

    Derived properties the paper quotes: aggregate bandwidth 80 TB/s
    (20,000 banks x 4 B x 1 GHz) and 3-cycle access latency. *)

type t = {
  banks : int;
  bank_bytes : int;
  port_bits : int;
}

val hnlpu : t
(** The paper's configuration. *)

val capacity_bytes : t -> int
(** 320 MB. *)

val bandwidth_bytes_per_s : t -> float

val area_mm2 : t -> float
(** SRAM macro model with the dense-bank efficiency of this design;
    Table 1: 136.11 mm². *)

val leakage_w : t -> float

val kv_bytes_per_position_per_chip : Hnlpu_model.Config.t -> int
(** Bytes a chip stores per cached sequence position: its 2 KV heads (K
    and V, FP16) across all layers, with positions striped mod 4 within the
    column (§4.2). *)

val onchip_positions : t -> Hnlpu_model.Config.t -> int
(** Longest context whose KV fits entirely on chip (~69K tokens for
    gpt-oss 120B — the paper's stalls appear past 256K only because
    prefetch hides the spill until bandwidth runs out; see {!Hbm}). *)

val spilled_bytes_per_token : t -> Hnlpu_model.Config.t -> context:int -> float
(** KV bytes a chip must stream from HBM to attend over [context] for one
    token (0 when everything fits).  Computed in float so the fractional
    positions near the spill boundary are not silently dropped — integer
    division here understated HBM traffic by up to 3 positions per chip. *)
