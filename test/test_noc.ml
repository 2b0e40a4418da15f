open Hnlpu_noc

(* --- Topology ----------------------------------------------------------- *)

let test_grid_shape () =
  Alcotest.(check int) "16 chips" 16 Topology.chips;
  Alcotest.(check int) "4 rows" 4 Topology.rows;
  Alcotest.(check int) "chip (2,3) id" 11 (Topology.chip_at ~row:2 ~col:3);
  Alcotest.(check int) "row of 11" 2 (Topology.row_of 11);
  Alcotest.(check int) "col of 11" 3 (Topology.col_of 11)

let test_groups () =
  Alcotest.(check (list int)) "row 1" [ 4; 5; 6; 7 ] (Topology.row_group 1);
  Alcotest.(check (list int)) "col 2" [ 2; 6; 10; 14 ] (Topology.col_group 2);
  Alcotest.(check (list int)) "row peers of 5" [ 4; 6; 7 ] (Topology.row_peers 5);
  Alcotest.(check (list int)) "col peers of 5" [ 1; 9; 13 ] (Topology.col_peers 5)

let test_connectivity () =
  (* Row-column fully-connected: 48 links, degree 6. *)
  Alcotest.(check int) "48 links" 48 (List.length (Topology.links ()));
  List.iter
    (fun c -> Alcotest.(check int) "degree 6" 6 (Topology.degree c))
    Topology.all_chips;
  Alcotest.(check bool) "same row connected" true (Topology.connected 4 7);
  Alcotest.(check bool) "same col connected" true (Topology.connected 2 14);
  Alcotest.(check bool) "diagonal not connected" false (Topology.connected 0 5);
  Alcotest.(check bool) "self not connected" false (Topology.connected 3 3)

let test_kv_owner_striping () =
  (* Position l lives on chip (l mod 4) of the column. *)
  Alcotest.(check int) "pos 0 col 2" 2 (Topology.kv_owner ~seq_pos:0 ~col:2);
  Alcotest.(check int) "pos 5 col 2" 6 (Topology.kv_owner ~seq_pos:5 ~col:2);
  Alcotest.(check int) "pos 7 col 0" 12 (Topology.kv_owner ~seq_pos:7 ~col:0)

let prop_links_are_row_or_col =
  QCheck.Test.make ~name:"every link joins a row or column pair" ~count:1
    QCheck.unit
    (fun () ->
      List.for_all
        (fun (a, b) ->
          Topology.row_of a = Topology.row_of b || Topology.col_of a = Topology.col_of b)
        (Topology.links ()))

(* --- Link ----------------------------------------------------------------- *)

let test_link_latency_components () =
  let l = Link.cxl3 in
  let t0 = Link.transfer_time_s l ~bytes:0 in
  let t2k = Link.transfer_time_s l ~bytes:2048 in
  Alcotest.(check bool) "zero payload still pays latency" true (t0 > 0.0);
  Alcotest.(check bool) "payload adds serialization" true
    (Thelp.close ~rel:1e-6 (t2k -. t0) (2048.0 /. 128.0e9))

let test_link_sub_100ns_phy () =
  (* Paper: CXL 3.0 "<100 ns" PHY latency. *)
  Alcotest.(check bool) "phy < 100ns" true (Link.cxl3.Link.phy_latency_s < 100e-9)

let test_link_energy () =
  let e = Link.transfer_energy_j Link.cxl3 ~bytes:1000 in
  Alcotest.(check bool) "8 pJ/bit" true (Thelp.close ~rel:1e-9 e (8000.0 *. 8.0e-12))

let test_link_energy_rejects_negative () =
  (* Regression: a negative payload used to yield a negative energy and
     silently corrupt accumulated totals. *)
  Alcotest.(check bool) "negative payload rejected" true
    (try
       ignore (Link.transfer_energy_j Link.cxl3 ~bytes:(-1));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check (float 0.0)) "zero payload is free" 0.0
    (Link.transfer_energy_j Link.cxl3 ~bytes:0)

(* --- Collective: function -------------------------------------------------- *)

let vals group xs = List.map2 (fun c v -> (c, v)) group xs

let test_sum_and_all_reduce () =
  let group = Topology.col_group 1 in
  let v = vals group [ [| 1.0; 2.0 |]; [| 10.0; 20.0 |]; [| 100.0; 200.0 |]; [| 1000.0; 2000.0 |] ] in
  Alcotest.(check (array (float 1e-12))) "sum" [| 1111.0; 2222.0 |] (Collective.sum v);
  let reduced = Collective.all_reduce v in
  List.iter
    (fun (_, x) ->
      Alcotest.(check (array (float 1e-12))) "everyone has the sum" [| 1111.0; 2222.0 |] x)
    reduced

let test_ragged_rejected () =
  Alcotest.(check bool) "ragged group rejected" true
    (try
       ignore (Collective.sum [ (0, [| 1.0 |]); (1, [| 1.0; 2.0 |]) ]);
       false
     with Invalid_argument _ -> true)

let prop_all_reduce_order_invariant =
  QCheck.Test.make ~name:"all-reduce independent of listing order" ~count:100
    QCheck.(list_of_size (Gen.return 4) (list_of_size (Gen.return 3) (float_range (-10.0) 10.0)))
    (fun xs ->
      let group = Topology.col_group 0 in
      let v = List.map2 (fun c l -> (c, Array.of_list l)) group xs in
      let a = Collective.sum v in
      let b = Collective.sum (List.rev v) in
      Hnlpu_tensor.Vec.max_abs_diff a b < 1e-9)

(* --- Collective: timing --------------------------------------------------
   Collectives are timed by their step-by-step Schedule plans. *)

let test_gather_is_one_step () =
  (* Rows and columns are full meshes: an all-gather of 2 or more members
     takes one step, so its makespan is one transfer time. *)
  let one = Link.transfer_time_s Link.cxl3 ~bytes:1024 in
  List.iter
    (fun group ->
      Alcotest.(check (float 1e-15))
        (Printf.sprintf "group of %d" (List.length group))
        one
        (Schedule.makespan
           (Schedule.canonical (Schedule.All_gather { group; shard_bytes = 1024 }))))
    [ [ 0; 1 ]; [ 4; 5; 7 ]; Topology.row_group 0; Topology.col_group 3 ]

let test_all_reduce_is_reduce_plus_broadcast () =
  let group = Topology.col_group 2 in
  let r = Schedule.canonical (Schedule.Reduce { root = 2; group; bytes = 512 }) in
  let b = Schedule.canonical (Schedule.Broadcast { root = 2; group; bytes = 512 }) in
  let ar = Schedule.all_reduce ~group ~bytes:512 in
  Alcotest.(check bool) "plan composition" true (r @ b = ar);
  Alcotest.(check (float 1e-15)) "composition"
    (Schedule.makespan r +. Schedule.makespan b) (Schedule.makespan ar)

let test_hierarchical_all_chip () =
  let col = Schedule.makespan (Schedule.all_reduce ~group:(Topology.col_group 0) ~bytes:1024) in
  let whole = Schedule.makespan (Schedule.canonical (Schedule.All_chip_all_reduce { bytes = 1024 })) in
  Alcotest.(check (float 1e-15)) "two-level" (2.0 *. col) whole

let test_transfer_counts () =
  let group = Topology.row_group 3 and root = 12 and bytes = 64 in
  List.iter
    (fun (name, want, plan) ->
      Alcotest.(check int) name want (Schedule.transfer_count plan))
    [
      ("reduce of 4", 3, Schedule.canonical (Schedule.Reduce { root; group; bytes }));
      ("broadcast to 4", 3, Schedule.canonical (Schedule.Broadcast { root; group; bytes }));
      ("scatter to 4", 3, Schedule.canonical (Schedule.Scatter { root; group; shard_bytes = bytes }));
      ("all-reduce of 4", 6, Schedule.all_reduce ~group ~bytes);
      ("all-gather of 4", 12, Schedule.canonical (Schedule.All_gather { group; shard_bytes = bytes }));
    ]

let test_topology_validation () =
  let open Hnlpu_noc in
  Alcotest.(check bool) "bad chip" true (Thelp.raises (fun () -> Topology.row_of 16));
  Alcotest.(check bool) "bad group" true (Thelp.raises (fun () -> Topology.col_group 4))

let suites =
  [
    ( "topology",
      [
        Alcotest.test_case "grid shape" `Quick test_grid_shape;
        Alcotest.test_case "groups" `Quick test_groups;
        Alcotest.test_case "connectivity" `Quick test_connectivity;
        Alcotest.test_case "kv striping" `Quick test_kv_owner_striping;
      ] );
    Thelp.qsuite "topology properties" [ prop_links_are_row_or_col ];
    ( "link",
      [
        Alcotest.test_case "latency components" `Quick test_link_latency_components;
        Alcotest.test_case "sub-100ns phy" `Quick test_link_sub_100ns_phy;
        Alcotest.test_case "energy" `Quick test_link_energy;
        Alcotest.test_case "energy rejects negative" `Quick
          test_link_energy_rejects_negative;
      ] );
    ( "collective-function",
      [
        Alcotest.test_case "sum/all-reduce" `Quick test_sum_and_all_reduce;
        Alcotest.test_case "ragged rejected" `Quick test_ragged_rejected;
      ] );
    Thelp.qsuite "collective properties" [ prop_all_reduce_order_invariant ];
    ( "collective-timing",
      [
        Alcotest.test_case "gather is one step" `Quick test_gather_is_one_step;
        Alcotest.test_case "reduce + broadcast" `Quick test_all_reduce_is_reduce_plus_broadcast;
        Alcotest.test_case "hierarchical 16-chip" `Quick test_hierarchical_all_chip;
        Alcotest.test_case "transfer counts" `Quick test_transfer_counts;
      ] );
    ("misc", [ Alcotest.test_case "topology validation" `Quick test_topology_validation ]);
  ]
