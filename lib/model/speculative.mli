(** Speculative decoding (Leviathan et al., the paper's related work [49])
    — a natural fit for HNLPU, whose chunked-prefill pipeline verifies a
    draft's k tokens in one pass.

    This module implements the *greedy* variant functionally: a small
    draft model proposes [lookahead] tokens; the target model scores the
    whole proposal in one batch of forwards; the longest prefix whose
    tokens match the target's own greedy choices is accepted, plus one
    corrected token.  Greedy speculative decoding provably emits exactly
    the target's greedy sequence — tested — while calling the target less
    often per token when the draft agrees. *)

type stats = {
  produced : int;          (** Tokens emitted. *)
  target_passes : int;     (** Verification passes of the target model. *)
  drafted : int;           (** Tokens proposed by the draft. *)
  accepted : int;          (** Proposals that survived verification. *)
  acceptance_rate : float; (** accepted / drafted. *)
  tokens_per_pass : float; (** produced / target_passes — the speedup lever. *)
}

val generate :
  target:Transformer.t -> draft:Transformer.t -> prompt:int list ->
  max_new_tokens:int -> lookahead:int -> unit ->
  int list * stats
(** Both models must share the vocabulary.  The transformers are reset
    first.  Raises on an empty prompt or non-positive lookahead. *)
