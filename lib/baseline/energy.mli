(** Per-token energy decomposition — where the 36 tokens/J of Table 2
    comes from, component by component.

    At steady state every block's power integrates over the token
    inter-arrival time (1 / throughput), so per-token energy is block
    power / throughput; the decomposition separates the chips' blocks from
    the system overhead (PSU, pumps, host).  The H100 comparison column
    shows the 1,047x gap in joules. *)

type row = {
  component : string;
  energy_mj : float;   (** Millijoules per token. *)
  share : float;
}

type t = {
  context : int;
  throughput_tokens_per_s : float;
  rows : row list;
  total_mj_per_token : float;
  tokens_per_joule : float;      (** Table 2: ~36. *)
  h100_mj_per_token : float;     (** 1.3 kW / 45 tok/s = ~28,900 mJ. *)
  advantage : float;             (** ~1,047x. *)
}

val analyze : unit -> t

val to_table : t -> Hnlpu_util.Table.t
