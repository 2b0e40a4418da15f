(** HNLPU — an OCaml reproduction of "Hardwired-Neuron Language Processing
    Units as General-Purpose Cognitive Substrates" (ASPLOS '26).

    This module is the stable public façade: it re-exports the underlying
    libraries under one namespace.  See README.md for the architecture map
    and {!Experiments} for one entry point per paper table/figure. *)

(** {1 Foundations} *)

module Rng = Hnlpu_util.Rng
module Stats = Hnlpu_util.Stats
module Units = Hnlpu_util.Units
module Table = Hnlpu_util.Table
module Chart = Hnlpu_util.Chart

(** {1 Deterministic domain-parallel execution} *)

module Par = Hnlpu_par.Par

(** {1 Arithmetic substrate (FP4, bit-serial, CSA)} *)

module Fp4 = Hnlpu_fp4.Fp4
module Blockscale = Hnlpu_fp4.Blockscale
module Bitserial = Hnlpu_fp4.Bitserial
module Csa = Hnlpu_fp4.Csa

(** {1 5 nm technology and gate census} *)

module Tech = Hnlpu_gates.Tech
module Census = Hnlpu_gates.Census
module Sram = Hnlpu_gates.Sram
module Yield = Hnlpu_gates.Yield

(** {1 The three embedding machines (Figures 12/13)} *)

module Gemv = Hnlpu_neuron.Gemv
module Neuron_bank = Hnlpu_neuron.Bank
module Mac_array = Hnlpu_neuron.Mac_array
module Cell_embedding = Hnlpu_neuron.Cell_embedding
module Metal_embedding = Hnlpu_neuron.Metal_embedding
module Me_rtl = Hnlpu_neuron.Me_rtl
module Neuron_report = Hnlpu_neuron.Report

(** {1 Reference model (gpt-oss-style MoE transformer)} *)

module Vec = Hnlpu_tensor.Vec
module Mat = Hnlpu_tensor.Mat
module Config = Hnlpu_model.Config
module Params = Hnlpu_model.Params
module Weights = Hnlpu_model.Weights
module Transformer = Hnlpu_model.Transformer
module Kv_cache = Hnlpu_model.Kv_cache
module Sampler = Hnlpu_model.Sampler
module Rope = Hnlpu_model.Rope
module Attention = Hnlpu_model.Attention
module Hn_linear = Hnlpu_model.Hn_linear
module Lora = Hnlpu_model.Lora
module Quant_eval = Hnlpu_model.Quant_eval
module Speculative = Hnlpu_model.Speculative

(** {1 Lithography and NRE (Sea-of-Neurons)} *)

module Layer_stack = Hnlpu_litho.Layer_stack
module Mask_cost = Hnlpu_litho.Mask_cost
module Strawman = Hnlpu_litho.Strawman
module Model_nre = Hnlpu_litho.Model_nre
module Routing = Hnlpu_litho.Routing
module Hn_compiler = Hnlpu_litho.Hn_compiler
module Sea_of_neurons = Hnlpu_litho.Sea_of_neurons

(** {1 Multi-chip fabric} *)

module Topology = Hnlpu_noc.Topology
module Link = Hnlpu_noc.Link
module Collective = Hnlpu_noc.Collective
module Schedule = Hnlpu_noc.Schedule

(** {1 Chip blocks (Table 1)} *)

module Hn_array = Hnlpu_chip.Hn_array
module Vex = Hnlpu_chip.Vex
module Attention_buffer = Hnlpu_chip.Attention_buffer
module Hbm = Hnlpu_chip.Hbm
module Interconnect_engine = Hnlpu_chip.Interconnect_engine
module Control_unit = Hnlpu_chip.Control_unit
module Floorplan = Hnlpu_chip.Floorplan
module Thermal = Hnlpu_chip.Thermal
module Package = Hnlpu_chip.Package
module Vex_sim = Hnlpu_chip.Vex_sim

(** {1 System (dataflow, performance, scheduling)} *)

module Mapping = Hnlpu_system.Mapping
module Layer_program = Hnlpu_system.Layer_program
module Dataflow = Hnlpu_system.Dataflow
module Perf = Hnlpu_system.Perf
module Scheduler = Hnlpu_system.Scheduler
module Ablation = Hnlpu_system.Ablation
module Trace = Hnlpu_system.Trace
module Slo = Hnlpu_system.Slo
module Arrivals = Hnlpu_system.Arrivals
module Fleet = Hnlpu_system.Fleet
module Traffic = Hnlpu_system.Traffic
module Execution = Hnlpu_system.Execution

(** {1 Baselines and economics} *)

module H100 = Hnlpu_baseline.H100
module Wse3 = Hnlpu_baseline.Wse3
module Compare = Hnlpu_baseline.Compare
module Scaling = Hnlpu_baseline.Scaling
module Energy = Hnlpu_baseline.Energy
module Pricing = Hnlpu_tco.Pricing
module Cost_breakdown = Hnlpu_tco.Cost_breakdown
module Tco = Hnlpu_tco.Tco
module Deployment = Hnlpu_tco.Deployment
module Carbon = Hnlpu_tco.Carbon
module Sensitivity = Hnlpu_tco.Sensitivity

(** {1 Observability (spans, metrics, Chrome-trace export)} *)

module Obs = Hnlpu_obs

(** {1 Static signoff (DRC/LVS/schedule/budget linting)} *)

module Diagnostic = Hnlpu_verify.Diagnostic
module Netlist_rules = Hnlpu_verify.Netlist_rules
module Noc_rules = Hnlpu_verify.Noc_rules
module System_rules = Hnlpu_verify.System_rules
module Chip_rules = Hnlpu_verify.Chip_rules
module Static = Hnlpu_verify.Static
module Signoff = Hnlpu_verify.Signoff
module Bundle = Hnlpu_verify.Bundle

(** {1 Experiments} *)

module Experiments = Experiments
module Calibration = Calibration
