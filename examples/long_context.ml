(* Long-context behaviour: the story behind Figure 14, end to end.

   Sweeps the decode context from 2K to 512K and shows (1) the stacked
   execution-time breakdown (comm gives way to attention), (2) the
   attention-buffer spill point where KV overflows the 320 MB on-chip
   buffer into HBM, (3) the throughput cliff, and (4) how a long-document
   serving workload slows under the context-aware scheduler.

   Run with: dune exec examples/long_context.exe *)

open Hnlpu

let config = Config.gpt_oss_120b

let () =
  print_endline "Execution-time breakdown per token (Figure 14)";
  print_string (Experiments.figure14_chart ());
  print_newline ();

  (* KV residency: where the stall comes from. *)
  let cap = Attention_buffer.onchip_positions Attention_buffer.hnlpu config in
  Printf.printf
    "Attention buffer: 320 MB/chip holds ~%s positions (%d B/position/chip);\n"
    (Units.group_thousands cap)
    (Attention_buffer.kv_bytes_per_position_per_chip config);
  List.iter
    (fun l ->
      let spilled =
        Attention_buffer.spilled_bytes_per_token Attention_buffer.hnlpu config
          ~context:l
      in
      let b = Perf.token_breakdown config ~context:l in
      Printf.printf
        "  %4dK context: %7.1f us/token, %s tokens/s, HBM spill %s/token, stall %s\n"
        (l / 1024)
        (Perf.total_s b *. 1e6)
        (Units.grouped (Perf.throughput_tokens_per_s config ~context:l))
        (Units.bytes spilled)
        (Units.percent (Perf.fractions b).Perf.stall_s))
    Perf.figure14_contexts;
  print_newline ();

  (* Serving impact: the same workload, flat vs context-aware latency. *)
  let workload =
    List.init 64 (fun i ->
        {
          Scheduler.arrival_s = 0.002 *. float_of_int i;
          prefill_tokens = 30_000;
          decode_tokens = 400;
        })
  in
  let flat = Scheduler.simulate ~context:2048 config workload in
  let aware = Scheduler.simulate ~context_aware:true config workload in
  Printf.printf
    "Long-document workload (64 x 30K-token prompts, 400-token answers):\n";
  Printf.printf "  flat 2K-latency model : %s tokens/s\n"
    (Units.grouped flat.Scheduler.throughput_tokens_per_s);
  Printf.printf "  context-aware model   : %s tokens/s (%.0f%% of flat)\n"
    (Units.grouped aware.Scheduler.throughput_tokens_per_s)
    (100.0
    *. aware.Scheduler.throughput_tokens_per_s
    /. flat.Scheduler.throughput_tokens_per_s);
  print_newline ();
  Printf.printf
    "The shape matches the paper: decode stays compute-cheap (HN) and\n\
     comm-bound until the KV cache outgrows the buffer near %s tokens;\n\
     past that, attention and HBM stalls own the token budget.\n"
    (Units.group_thousands cap)
