(** Quantization-fidelity evaluation.

    The paper hardwires the *already 4-bit* gpt-oss checkpoint, noting the
    model size "has a concrete lower bound" (§2.2) — i.e. FP4 is where
    production models already live, so hardwiring loses nothing further.
    This module quantifies that premise on the runnable reference model:
    a float checkpoint and its MXFP4 twin are compared on perplexity,
    hidden-state geometry and next-token agreement over synthetic
    sequences.

    No tool or example calls this module; it stays as the check on §2.2's
    FP4 premise, which test_system2 bounds (perplexity within 25% of
    float) and test_par runs as a sweep-determinism reference. *)

type report = {
  sequences : int;
  tokens_scored : int;
  ppl_float : float;
  ppl_fp4 : float;
  ppl_ratio : float;          (** fp4 / float; 1.0 = no degradation. *)
  hidden_cosine : float;      (** Mean cosine similarity of final hidden
                                  states, float vs fp4. *)
  top1_agreement : float;     (** Fraction of steps where both models pick
                                  the same greedy token. *)
}

val evaluate :
  ?sequences:int -> ?length:int -> ?domains:int ->
  Hnlpu_util.Rng.t -> Config.t -> report
(** Build a float checkpoint, quantize its twin, score [sequences]
    (default 8) random sequences of [length] (default 12) tokens through
    both.  The config must be architecturally specified.

    Token sequences are drawn from [rng] sequentially (the same draws as
    a sequential evaluation); scoring then fans out per sequence across
    the {!Hnlpu_par.Par} pool ([domains] overrides its width) with
    partial sums reduced in sequence order, so the report is identical
    for every domain count. *)
