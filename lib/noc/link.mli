(** CXL 3.0 point-to-point link model (paper §4.2: "low latency (<100 ns)
    and high bandwidth (128 GB/s per x16 link)").

    One transfer's latency is

      [phy_latency + engine_overhead + payload / bandwidth]

    where [engine_overhead] covers the interconnect engine's packetization,
    flow control and synchronization between pipeline stages.  It times
    the {!Schedule} plans; the performance model charges its own per-step
    overhead ([Hnlpu_system.Perf.engine_base_s], 200 ns) — two values for
    one overhead, listed in EXPERIMENTS.md's calibrated-constant index.
    Energy is [pj_per_bit] x payload. *)

type t = {
  bandwidth_bytes_per_s : float;
  phy_latency_s : float;
  engine_overhead_s : float;
  pj_per_bit : float;
}

val cxl3 : t
(** 128 GB/s, 90 ns PHY+protocol, 290 ns engine overhead, 8 pJ/bit. *)

val transfer_time_s : t -> bytes:int -> float
(** Latency of one point-to-point transfer.  Zero-byte transfers still pay
    the latency terms (synchronization messages). *)

val transfer_energy_j : t -> bytes:int -> float
(** [pj_per_bit] x payload.  Raises [Invalid_argument] on negative byte
    counts, matching {!transfer_time_s}. *)

val bytes_per_value : int
(** Activation payloads travel as FP16: 2 bytes per element. *)
