(** Functional models of the VEX nonlinear units (paper §4.3: "dedicated
    nonlinear modules for the efficient computation of RMSNorm, SwiGLU,
    and softmax").

    Hardware does not evaluate [exp] or [1/sqrt] — it approximates.  These
    are the standard fixed-function implementations at the accuracy class
    a sign-off would use, each checked against the float reference:

    - [exp]: range reduction to exp2, 64-entry LUT on the fraction's top
      bits with linear interpolation;
    - [rsqrt]: exponent halving seed + two Newton–Raphson iterations;
    - [silu]: x * sigmoid x via the hardware [exp];
    - [softmax] / [rmsnorm]: the §4.3 compositions over the above.

    Property tests bound the relative error (< 1e-3 for exp/rsqrt over
    their working ranges) and check that a transformer layer evaluated with
    these units tracks the float layer — the numerics HNLPU actually
    ships.

    No tool or example calls this module yet; it stays as the §4.3 model
    of the VEX nonlinear units, which test_chip checks against the
    float {!Hnlpu_tensor.Vec} reference.  ROADMAP's "hardwired forward
    computes the model that signoff checked" item gives it a caller: the
    [Hardwired] numerics of [Dataflow] run RMSNorm, SwiGLU and softmax
    through these units. *)

val exp_hw : float -> float
(** Working range ~[-87, 87] (FP32 class); clamps outside. *)

val rsqrt_hw : float -> float
(** Positive inputs. *)

val sigmoid_hw : float -> float

val softmax_hw : Hnlpu_tensor.Vec.t -> Hnlpu_tensor.Vec.t
(** Max-subtracted, hardware [exp], exact-ish normalization. *)

val rmsnorm_hw : gain:Hnlpu_tensor.Vec.t -> Hnlpu_tensor.Vec.t -> Hnlpu_tensor.Vec.t

val swiglu_hw : gate:Hnlpu_tensor.Vec.t -> up:Hnlpu_tensor.Vec.t -> Hnlpu_tensor.Vec.t

val max_rel_error_exp : lo:float -> hi:float -> samples:int -> float
(** Worst relative error of [exp_hw] over a range (diagnostics/tests). *)

val max_rel_error_rsqrt : lo:float -> hi:float -> samples:int -> float
