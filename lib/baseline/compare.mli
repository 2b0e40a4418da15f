(** The system-level comparison of Table 2: HNLPU vs H100 vs WSE-3 serving
    gpt-oss 120B at 2K context. *)

type system = {
  sys_name : string;
  throughput_tokens_per_s : float;
  tech_node : string;
  silicon_mm2 : float;
  rack_units : int;
  system_power_w : float;
  tokens_per_kj : float;
  tokens_per_s_mm2 : float;
}

val hnlpu : unit -> system
(** From {!Hnlpu_system.Perf} and {!Hnlpu_chip.Floorplan}. *)

val h100 : unit -> system

val table2 : unit -> system list
(** [hnlpu; h100; wse3] at the paper's operating point. *)

val throughput_ratio : system -> over:system -> float
(** Paper headline: 5,555x over H100, 85x over WSE-3. *)

val efficiency_ratio : system -> over:system -> float
(** Paper headline: 1,047x over H100, 283x over WSE-3. *)

val to_table : system list -> Hnlpu_util.Table.t
