(** Reference MoE-transformer inference — the functional ground truth for
    what HNLPU computes (architecture of §6.2, dataflow of Appendix A).

    One [t] carries the weights plus the KV cache of a single sequence; the
    multi-sequence batching behaviour is modelled at the system level
    ({!Hnlpu_system.Scheduler}), which only needs per-token timing, not
    values.

    Every stage matches the paper's description: RMSNorm before attention
    and FFN, GQA with RoPE, FlashAttention-style streaming softmax, MoE
    router with top-k + softmax expert weights, SwiGLU experts, residual
    additions, final norm and unembedding. *)

type t

val create : Weights.t -> t
(** Fresh state (empty KV cache) over shared weights. *)

val config : t -> Config.t

val position : t -> int
(** Number of tokens consumed so far. *)

val reset : t -> unit
(** Clear the KV cache; weights are untouched. *)

val fork : t -> t
(** An independent continuation of the same sequence: shares the weights,
    copies the KV cache and counters.  {!Speculative} forks draft and
    target to propose and verify a block without disturbing their
    committed state. *)

val forward : t -> token:int -> Hnlpu_tensor.Vec.t
(** Consume one token id, return next-token logits (length [vocab]).
    Raises [Invalid_argument] on an out-of-vocabulary id. *)

val ffn :
  Config.t -> Weights.layer -> Hnlpu_tensor.Vec.t -> Hnlpu_tensor.Vec.t * (int * float) list
(** One layer's FFN on the normalised hidden state, and the experts that
    ran with their router scores: the dense FFN (expert 0, score 1), or
    the router's top-k experts weighted by the softmax of their scores
    (Figure 10-VII..IX), summed in rank order.
    {!Hnlpu_system.Dataflow} runs the same block. *)

val prefill : t -> int list -> Hnlpu_tensor.Vec.t
(** Feed a prompt; logits after the last token.  Raises on empty prompt. *)

val generate :
  Hnlpu_util.Rng.t -> t -> prompt:int list -> max_new_tokens:int ->
  ?stop:int -> Sampler.strategy -> int list
(** Autoregressive decode; stops at [max_new_tokens] or on the [stop]
    token (which is not included in the output). *)

(** {1 Non-generation use cases}

    The paper's §8 "Extended Application Scenarios": the same hardwired
    pipeline serves sequence scoring and text embedding — only the final
    sampling stage changes. *)

val score : t -> int list -> float
(** Total log-likelihood of a sequence (each token scored given its
    prefix; the first token is free).  Resets the state first.  Requires
    at least two tokens. *)

val perplexity : t -> int list -> float
(** exp (-score / (n-1)) — standard per-token perplexity. *)

val embed : t -> int list -> Hnlpu_tensor.Vec.t
(** Mean-pooled residual-stream states over the sequence (length [hidden]):
    the text-embedding mode.  Resets the state first. *)

val expert_load : t -> int array
(** Cumulative activation count per expert since creation/reset — lets
    tests check the router's top-k behaviour and the MoE sparsity argument
    behind the HN array's low power (§7.1). *)

val hidden_state : t -> Hnlpu_tensor.Vec.t
(** Residual-stream vector after the last forward (for tests). *)
