(** The FlashAttention-style streaming softmax (paper §4.3 VEX, Appendix
    A): one pass behind both {!Transformer} and the 16-chip dataflow. *)

val pass :
  q:float array -> qo:int -> heads:int -> head_dim:int ->
  ks:float array -> vs:float array -> stride:int -> kvo:int ->
  first:int -> stop:int -> acc:float array -> ao:int ->
  stats:float array -> so:int -> unit
(** Attends the [heads] query heads of one GQA group over positions
    [first .. stop - 1] of a K/V slab, reading each K and V row once for
    the whole group.  Head [h]'s query is [q] from [qo + h * head_dim];
    position [p]'s key (value) is [ks] ([vs]) from [p * stride + kvo].
    Head [h]'s unnormalised weighted value goes to [acc] from
    [ao + h * head_dim], its running max and normaliser to
    [stats.(so + 2h)] and [stats.(so + 2h + 1)].  Each head's operations
    run in position order, as a head-at-a-time loop's would.  Allocates
    nothing; raises [Invalid_argument] on an odd [head_dim] (RoPE rotates
    pairs, so no model has one) or a range outside its array. *)
