(** The prefabricated Sea-of-Neurons array as a *resource*, and what fits
    on it (paper §3.2 and §8 future work 1, "Enhanced Flexibility").

    The prefab die is an array of fixed HN tiles: each tile is one
    hardwired neuron with a fixed input-port budget (gpt-oss's hidden size
    x slack) and 16 POPCNT regions.  Metal-embedding a model means binding
    its output neurons onto tiles:

    - a projection whose fan-in fits the tile's ports uses one tile per
      output neuron (possibly wasting ports — {e fragmentation});
    - a wider fan-in chains multiple tiles per neuron (their partial sums
      combine through the tile's cascade port).

    So the same homogeneous mask set serves other models — at a
    utilization penalty this module quantifies.  Re-spinning a model with
    different hyper-parameters is a metal-only change as long as the tile
    demand fits the prefab supply.

    No tool or example calls this module yet; it stays as the §3.2/§8
    prefab planner, whose gpt-oss plan (16 chips) and utilization penalty
    over {!Model_nre}'s pro-rata chip count test_prefab pins.  ROADMAP's
    "POPCNT regions sized from the MXFP4 code distribution" item gives it
    a caller: the derived region sizing must fit this tile's gpt-oss plan
    on MXFP4 codes. *)

type tile_spec = {
  ports : int;           (** Input ports per tile (2880 x 1.25 slack). *)
  tiles_per_chip : int;  (** Prefab supply on one 573 mm² HN array. *)
}

type projection_demand = {
  proj_name : string;
  fan_in : int;
  neurons : int;          (** Output neurons, per layer. *)
  tiles_per_neuron : int; (** Chaining factor. *)
  port_utilization : float; (** fan_in / (tiles x ports). *)
}

type plan = {
  model : string;
  demands : projection_demand list;  (** One entry per distinct projection. *)
  tiles_needed : float;              (** Whole model, all layers. *)
  chips_needed : int;
  avg_port_utilization : float;      (** Weight-weighted. *)
  fits_reference_16 : bool;          (** Within the 16-chip gpt-oss build. *)
}

val plan : Hnlpu_model.Config.t -> plan
(** Raises on footprint-only models (no shapes to bind). *)

val utilization_penalty : Hnlpu_model.Config.t -> float
(** chips_needed / ideal pro-rata chips — 1.0 when the model's shapes
    tile perfectly (gpt-oss by construction); larger when fragmentation
    or chaining wastes ports. *)
