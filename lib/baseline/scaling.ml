open Hnlpu_util

let config = Hnlpu_model.Config.gpt_oss_120b

type point = {
  gpu_batch : int;
  gpu_tokens_per_s : float;
  gpus_needed : float;
  cluster_price_usd : float;
  cluster_power_w : float;
  power_ratio : float;
}

let hnlpu_rate () = Hnlpu_system.Perf.throughput_tokens_per_s config ~context:2048

let hnlpu_power_w () =
  Hnlpu_chip.Floorplan.system_power_w (Hnlpu_chip.Floorplan.table1 ())

let point_of_batch batch =
  let gpu_rate =
    if batch = 1 then H100.measured_decode_tokens_per_s
    else H100.roofline_tokens_per_s config ~batch
  in
  let gpus = hnlpu_rate () /. gpu_rate in
  {
    gpu_batch = batch;
    gpu_tokens_per_s = gpu_rate;
    gpus_needed = gpus;
    cluster_price_usd = gpus *. H100.price_per_gpu_usd;
    cluster_power_w = gpus *. H100.spec.H100.system_power_w;
    power_ratio = gpus *. H100.spec.H100.system_power_w /. hnlpu_power_w ();
  }

let sweep () = List.map point_of_batch [ 1; 8; 32; 50; 128; 256 ]

let paper_equivalence =
  (* The Appendix B note 1 regime, using the measured 1.08K tok/s rather
     than the roofline: one HNLPU's ~2M tok/s mixed throughput over the
     per-GPU figure. *)
  let gpus = 2.0e6 /. H100.concurrent_tokens_per_s in
  {
    gpu_batch = 50;
    gpu_tokens_per_s = H100.concurrent_tokens_per_s;
    gpus_needed = gpus;
    cluster_price_usd = gpus *. H100.price_per_gpu_usd;
    cluster_power_w = gpus *. H100.spec.H100.system_power_w;
    power_ratio = gpus *. H100.spec.H100.system_power_w /. hnlpu_power_w ();
  }

let to_table points =
  let t =
    Table.create
      ~headers:
        [ "GPU batch"; "tok/s per GPU"; "GPUs to match"; "Cluster price";
          "Cluster power"; "Power ratio" ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          string_of_int p.gpu_batch;
          Printf.sprintf "%.0f" p.gpu_tokens_per_s;
          Printf.sprintf "%.0f" p.gpus_needed;
          Units.dollars p.cluster_price_usd;
          Units.watts p.cluster_power_w;
          Printf.sprintf "%.0fx" p.power_ratio;
        ])
    points;
  t
