(** The Hardwired-Neuron Compiler (paper §3.2 flow and §8 future work 2).

    The paper's physical flow: "the layout is exported to custom tools
    which read weight parameters and generate TCL scripts to instruct the
    connection of metal embedding wires", followed by DRC and LVS.  This
    module is that custom tool, at the model level:

    + {!compile} turns a quantized weight matrix into a metal-embedding
      {e netlist}: one wire per weight, from its input port to its E2M1
      region's next free port, assigned to a routing track on M8–M11;
    + {!to_tcl} / {!of_tcl} serialize the netlist as the P&R script and
      parse it back (round-trip tested);
    + {!lvs} is layout-versus-schematic: the netlist must reconstruct the
      weight matrix exactly;
    + {!drc} is design-rule checking: port capacities respected, no two
      wires on the same (layer, track), every track within the window.

    The netlist is exactly the information content of the 10 ME reticles:
    16 chips x one netlist each is what a re-spin re-fabricates. *)

type wire = {
  neuron : int;         (** Output-neuron index (row of the bank). *)
  input : int;          (** Input-activation index. *)
  region : int;         (** E2M1 code, 0..15. *)
  port : int;           (** Port within the region, < capacity. *)
  layer : string;       (** Routing layer, one of M8..M11. *)
  track : int;          (** Track index on that layer. *)
}

type netlist = {
  in_features : int;
  out_features : int;
  region_capacity : int;
  wires : wire list;    (** Exactly in_features x out_features wires. *)
}

val layers : string array
(** The metal-embedding routing window, M8..M11 in order. *)

val compile : ?slack:float -> Hnlpu_neuron.Gemv.t -> netlist
(** Raises [Invalid_argument] when a region overflows its slacked
    capacity, {!Hnlpu_neuron.Bank.region_capacity}. *)

val to_tcl : netlist -> string
(** The P&R connection script ("create_net/route" pseudo-TCL). *)

val of_tcl : string -> netlist
(** Parse a script back.  Raises [Failure] naming the line number and the
    offending token on malformed input: bad header, truncated statement,
    unknown layer, out-of-bank indices, or a duplicate (neuron, input)
    wire. *)

val lvs : netlist -> Hnlpu_neuron.Gemv.t -> bool
(** Layout-versus-schematic: the wires encode exactly the given weights —
    same shape, extractable, and no {!lvs_mismatches}. *)

val lvs_mismatches : netlist -> Hnlpu_neuron.Gemv.t -> (int * int) list
(** The (neuron, input) cells whose extracted weight differs from the
    schematic's, in row-major order.  Raises [Invalid_argument] when the
    shapes differ and [Failure] when {!extract_weights} does. *)

val extract_weights : netlist -> Hnlpu_fp4.Fp4.t array array
(** Reconstruct the weight matrix from the wires alone. *)

type drc_violation =
  | Track_conflict of string * int * wire list
      (** The wires sharing one (layer, track). *)
  | Port_overflow of int * int * wire list
      (** All wires crowding a (neuron, region) beyond capacity. *)
  | Out_of_window of wire
      (** Wire on an unknown routing layer or a track beyond the window. *)

val max_tracks_per_layer : netlist -> int
(** The exact per-layer track window the compiler's round-robin assignment
    can reach for this bank shape: [out * ceil(in / 4)]. *)

val drc : netlist -> drc_violation list
(** Empty list = DRC clean.  Tracks are bounded by
    {!max_tracks_per_layer} — the bound derived from the compiler's own
    assignment range.  Each violation carries the offending wires so
    downstream diagnostics can point at them. *)

val wire_count : netlist -> int

type diff_stats = {
  total_wires : int;
  rerouted : int;          (** Wires whose destination region changed. *)
  rerouted_fraction : float;
  layers_touched : string list;  (** Routing layers carrying changed wires. *)
}

val diff : netlist -> netlist -> diff_stats
(** What a weight-update re-spin re-fabricates: compare the blue and green
    netlists of the same bank (same shape, same port capacity — raises
    otherwise).  Only the changed wires differ on the ME reticles; the
    prefab below is untouched by construction. *)

val report : netlist -> string
(** Human-readable summary: wires, per-layer occupancy, region fill. *)
