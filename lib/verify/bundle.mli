(** Load and export whole signoff bundles: the on-disk form of a
    {!Signoff.design}, so [hnlpu check --bundle DIR] gates arbitrary user
    designs rather than only the built-in reference.

    Bundle layout (all paths relative to the bundle directory):

    {v
    manifest            key = value: config, claimed-slots, max-context,
                        and optionally power-scale, coolant-c
    netlists/chipNN.tcl one ME netlist per fabric chip (00..15), the
                        Hn_compiler to_tcl/of_tcl P&R script
    schematics/chipNN.sch  optional golden weights for LVS:
                        '# hn-schematic in=N out=N act-bits=N' then one
                        row of E2M1 codes (0..15) per output neuron
    plans/NAME.plan     collective plans, checked in filename order:
                        header keys (name, collective, group, root,
                        bytes / shard-bytes), then 'step' markers and
                        'SRC -> DST : BYTES' transfer lines; collective
                        is reduce, broadcast, all-reduce, all-gather,
                        scatter or all-chip-all-reduce (bytes only)
    stage_map           optional 'LAYER STAGE' lines; canonical map of
                        the manifest config when absent
    v}

    When a chip ships no schematic, LVS runs against the weights the
    netlist itself encodes (and an unextractable netlist gets an all-zero
    schematic so [ME-LVS] reports the discrepancy).  All loaders raise
    [Failure] naming the file and line of the first problem. *)

val load : string -> Signoff.design
(** [load dir] parses the bundle.  Raises [Failure] on a missing or
    malformed file. *)

val export : dir:string -> Signoff.design -> string list
(** [export ~dir d] writes [d] as a bundle under [dir] (creating
    directories as needed) such that [load dir] round-trips it; returns
    the written paths.  Exporting {!Signoff.reference} gives a template
    users can start a bundle from. *)
