(** Netlist signoff rules over {!Hnlpu_litho.Hn_compiler} artifacts.

    Rule IDs:
    - [ME-CONGEST] — per-layer track congestion: wire counts against the
      per-layer track window, with a utilization histogram ([Info]) per
      netlist; exceeding the window is an [Error].
    - [ME-TRACK]   — two wires short on one (layer, track).
    - [ME-PORT]    — a (neuron, region) crowded beyond port capacity.
    - [ME-WINDOW]  — a wire outside the M8-M11 routing window.
    - [ME-MASK]    — cross-chip mask uniformity: the 16 chips share every
      reticle except the ME layers, so only M8-M11 content may differ.
    - [ME-LVS]     — layout versus schematic: the netlist must reconstruct
      the {!Hnlpu_neuron.Gemv} weight matrix exactly. *)

val congestion :
  ?tracks_per_layer:int -> subject:string -> Hnlpu_litho.Hn_compiler.netlist ->
  Diagnostic.t list
(** [ME-CONGEST]: per-layer wire counts vs the track window (default
    {!Hnlpu_litho.Hn_compiler.max_tracks_per_layer}), plus an [Info]
    utilization histogram. *)

val lvs :
  subject:string -> Hnlpu_litho.Hn_compiler.netlist -> Hnlpu_neuron.Gemv.t ->
  Diagnostic.t list
(** [ME-LVS]: shape match, extractability, and weight-for-weight
    equivalence (mismatching cells are named, first few). *)

val mask_uniformity :
  (string * Hnlpu_litho.Hn_compiler.netlist) list -> Diagnostic.t list
(** [ME-MASK] across the per-chip netlists: bank shape, port capacity and
    wire count must agree everywhere (those are prefab properties), and no
    wire may sit outside M8-M11 (that would edit a shared mask). *)

val check_chip :
  subject:string -> Hnlpu_litho.Hn_compiler.netlist ->
  Hnlpu_neuron.Gemv.t -> Diagnostic.t list
(** Congestion + DRC + LVS for one chip's netlist. *)
