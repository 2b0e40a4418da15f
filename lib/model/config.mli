(** Model architecture configurations.

    [gpt_oss_120b] is the paper's target model (§6.2): a 36-layer
    Llama-style MoE transformer with hidden size 2880, 64 query heads /
    8 KV heads of dimension 64 (GQA 8:1), 128 experts with top-4 routing
    and expert intermediate size 2880, vocabulary 201,088, FP4 weights.

    [tiny] is the same architecture scaled down far enough to run the
    reference implementation quickly — it exercises every code path
    (GQA, RMSNorm, SwiGLU, MoE routing, sampling) at laptop scale, per
    DESIGN.md's substitution table.

    The Table 4 models (Kimi-K2, DeepSeek-V3, QwQ, Llama-3) are carried as
    parameter-count/precision footprints only; the paper prices their NRE
    purely from the bytes that must be hardwired. *)

type t = {
  name : string;
  num_layers : int;
  hidden : int;            (** Model (residual stream) dimension. *)
  q_heads : int;
  kv_heads : int;
  head_dim : int;
  experts : int;           (** 0 for dense FFN. *)
  experts_per_token : int;
  expert_hidden : int;     (** Expert (or dense FFN) intermediate size. *)
  vocab : int;
  sliding_window : int option;
      (** Sliding-window attention span.  The real gpt-oss alternates
          128-token windowed layers with full-attention layers; the paper's
          performance model assumes full attention everywhere, so the
          reproduction presets keep [None] and a [_sw] variant exposes the
          windowed behaviour for ablation. *)
  bits_per_param : float;  (** Native weight precision footprint. *)
  total_params_override : float option;
      (** For externally-specified models whose internals we do not model:
          the published total parameter count. *)
}

val gpt_oss_120b : t

val gpt_oss_20b : t
(** The smaller sibling (24 layers, 32 experts, ~21B parameters) — a
    second fully-specified point for NRE and performance what-ifs. *)

val gpt_oss_120b_sw : t
(** [gpt_oss_120b] with the real model's alternating 128-token sliding
    window enabled (even layers windowed, odd layers full). *)

val layer_window : t -> layer:int -> int option
(** The attention span of a layer: [sliding_window] on even layers,
    full attention on odd layers (and everywhere when unset). *)

val tiny : t
(** 2 layers, hidden 32, 4 Q / 2 KV heads of dim 8, 8 experts top-2,
    vocabulary 64. *)

val tiny_dense : t
(** [tiny] without MoE (dense FFN) — baseline for routing tests. *)

val tiny_hnlpu : t
(** A tiny config whose dimensions divide evenly over the 4x4 chip grid
    (hidden 32, 8 Q / 4 KV heads of dim 8, 16 experts top-2) — the model
    used by the distributed-dataflow equivalence tests. *)

val kimi_k2 : t
val qwq_32b : t

val table4_models : t list
(** The four rows of the paper's Table 4, in order. *)

val q_dim : t -> int
(** q_heads * head_dim. *)

val kv_dim : t -> int
(** kv_heads * head_dim. *)

val gqa_group : t -> int
(** Query heads per KV head. *)

val validate : t -> unit
(** Raises [Invalid_argument] on inconsistent configurations (e.g. q_heads
    not divisible by kv_heads, or experts_per_token > experts). *)
