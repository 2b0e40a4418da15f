(** Transistor census for the datapath structures of the three embedding
    methodologies.

    Static CMOS gate costs are the classical ones (NAND2 = 4, XOR2 = 8, full
    adder = 28, D-flip-flop = 24 transistors).  Composite units are built
    from these; {!Hnlpu_neuron} combines them with {!Hnlpu_fp4.Csa} structural
    statistics to price a whole neuron. *)

(** {1 Primitive gates} (transistors) *)

val full_adder : int

(** {1 Composite units} *)

val ripple_adder : int -> int
(** [ripple_adder w]: w-bit carry-propagate adder. *)

val register : int -> int
(** [register w]: w-bit flip-flop bank. *)

val csa_cost : Hnlpu_fp4.Csa.stats -> int
(** Transistors of a CSA tree from its structural statistics, including the
    final carry-propagate adder. *)

val fp4_constant_multiplier : input_bits:int -> Hnlpu_fp4.Fp4.t -> int
(** Transistors of a multiply-by-constant unit for one E2M1 code on a
    two's-complement input of [input_bits] bits.  Powers of two are free
    (wiring); x1.5/x3/x6 cost one shift-add; negative codes add a negator.
    This is the "several times lower in Boolean complexity" unit of §3.1. *)

val fp4_constant_multiplier_avg : input_bits:int -> float
(** Mean over the 16 codes — the expected per-weight cost in a CE fabric. *)

val fp4_full_mac : input_bits:int -> int
(** A non-constant FP4 x int MAC as found in a conventional array; the paper
    puts it at 200+ transistors. *)

val popcount_port_transistors : int
(** Effective transistors per POPCNT input port in the Hardwired-Neuron
    fabric.

    A textbook static-CMOS 3:2 compressor costs {!full_adder} = 28 T per
    port, but the paper's density figures (15x over a 208 T/weight CMAC
    grid, i.e. ~14 T/weight all-in; HN array 573 mm²/chip for ~7.2 B
    weights) imply a far denser counting fabric.  The paper does not give
    the circuit; we model it as compact transmission-gate counter cells
    with accumulator slices shared across regions, at 8 T per port.  This
    single calibrated constant drives the ME area in Figure 12 and the HN
    array area in Table 1 — see EXPERIMENTS.md for the sensitivity note. *)

val popcount_region : ports:int -> int
(** Transistors of one POPCNT region with the given port capacity (port
    cells plus the log-depth combining tail). *)
