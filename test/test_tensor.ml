open Hnlpu_tensor
open Hnlpu_util

let check_float = Alcotest.(check (float 1e-9))
let check_vec = Alcotest.(check (array (float 1e-9)))

(* --- Vec --------------------------------------------------------------- *)

let test_vec_arith () =
  check_vec "add" [| 4.0; 6.0 |] (Vec.add [| 1.0; 2.0 |] [| 3.0; 4.0 |]);
  check_vec "sub" [| -2.0; -2.0 |] (Vec.sub [| 1.0; 2.0 |] [| 3.0; 4.0 |]);
  check_vec "scale" [| 2.0; 4.0 |] (Vec.scale 2.0 [| 1.0; 2.0 |]);
  check_vec "mul" [| 3.0; 8.0 |] (Vec.mul [| 1.0; 2.0 |] [| 3.0; 4.0 |]);
  check_float "dot" 11.0 (Vec.dot [| 1.0; 2.0 |] [| 3.0; 4.0 |]);
  check_float "norm2" 5.0 (Vec.norm2 [| 3.0; 4.0 |])

let test_vec_add_inplace () =
  let a = [| 1.0; 2.0 |] in
  Vec.add_inplace a [| 10.0; 20.0 |];
  check_vec "inplace" [| 11.0; 22.0 |] a

let test_vec_mismatch () =
  Alcotest.(check bool) "mismatch raises" true
    (try
       ignore (Vec.add [| 1.0 |] [| 1.0; 2.0 |]);
       false
     with Invalid_argument _ -> true)

let test_softmax_properties () =
  let s = Vec.softmax [| 1.0; 2.0; 3.0 |] in
  check_float "sums to 1" 1.0 (Array.fold_left ( +. ) 0.0 s);
  Alcotest.(check bool) "monotone" true (s.(0) < s.(1) && s.(1) < s.(2))

let test_softmax_stability () =
  (* Large logits must not overflow. *)
  let s = Vec.softmax [| 1000.0; 1001.0 |] in
  Alcotest.(check bool) "finite" true (Array.for_all Float.is_finite s);
  check_float "sums to 1" 1.0 (Array.fold_left ( +. ) 0.0 s)

let test_softmax_masked () =
  let s = Vec.softmax_masked [| 0.0; 0.0; 99.0 |] ~valid:2 in
  check_float "masked out" 0.0 s.(2);
  check_float "uniform over valid" 0.5 s.(0)

let test_rmsnorm () =
  let gain = Array.make 4 1.0 in
  let x = [| 2.0; -2.0; 2.0; -2.0 |] in
  let y = Vec.rmsnorm ~gain x in
  (* rms = 2, so result is x/2 (up to eps). *)
  Alcotest.(check (array (float 1e-3))) "normalized" [| 1.0; -1.0; 1.0; -1.0 |] y

let test_rmsnorm_gain () =
  let y = Vec.rmsnorm ~gain:[| 2.0; 0.0 |] [| 3.0; 3.0 |] in
  Alcotest.(check bool) "gain applied" true (y.(1) = 0.0 && y.(0) > 1.9)

let test_silu () =
  let y = Vec.silu [| 0.0; 100.0; -100.0 |] in
  check_float "silu(0)" 0.0 y.(0);
  Alcotest.(check (float 1e-6)) "silu(+inf)~x" 100.0 y.(1);
  Alcotest.(check (float 1e-6)) "silu(-inf)~0" 0.0 y.(2)

let test_swiglu () =
  let y = Vec.swiglu ~gate:[| 0.0 |] ~up:[| 5.0 |] in
  check_float "gate 0 kills" 0.0 y.(0)

let test_argmax_topk () =
  let x = [| 1.0; 5.0; 3.0; 5.0 |] in
  Alcotest.(check int) "argmax first max" 1 (Vec.argmax x);
  let top = Vec.top_k 2 x in
  Alcotest.(check (list (pair int (float 0.0)))) "top2" [ (1, 5.0); (3, 5.0) ] top

(* The polymorphic sort [Vec.top_k] used before it went monomorphic:
   the reference its order must keep, ties, NaN and signed zeros
   included. *)
let top_k_by_polymorphic_sort k a =
  let idx = Array.init (Array.length a) Fun.id in
  Array.sort (fun i j -> match compare a.(j) a.(i) with 0 -> compare i j | c -> c) idx;
  List.init k (fun r -> (idx.(r), a.(idx.(r))))

let prop_top_k_order =
  QCheck.Test.make ~name:"top_k = polymorphic sort, every k" ~count:300
    QCheck.(pair (int_range 1 40) (int_range 0 1000000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let levels = [| 1.0; -1.0; 0.0; -0.0; nan; infinity; neg_infinity; 0.5 |] in
      let a =
        Array.init n (fun _ ->
            if Rng.int rng 2 = 0 then levels.(Rng.int rng (Array.length levels))
            else Rng.gaussian rng)
      in
      let same (i, x) (j, y) = i = j && Int64.bits_of_float x = Int64.bits_of_float y in
      List.for_all
        (fun k -> List.equal same (Vec.top_k k a) (top_k_by_polymorphic_sort k a))
        (List.init n (fun k -> k + 1)))

let prop_softmax_simplex =
  QCheck.Test.make ~name:"softmax lands on the simplex" ~count:200
    QCheck.(array_of_size (Gen.int_range 1 50) (float_range (-50.0) 50.0))
    (fun x ->
      let s = Vec.softmax x in
      Array.for_all (fun p -> p >= 0.0 && p <= 1.0) s
      && Float.abs (Array.fold_left ( +. ) 0.0 s -. 1.0) < 1e-9)

let prop_rmsnorm_scale_invariant =
  QCheck.Test.make ~name:"rmsnorm invariant to positive scaling" ~count:100
    QCheck.(array_of_size (Gen.int_range 2 20) (float_range 0.1 10.0))
    (fun x ->
      let gain = Array.make (Array.length x) 1.0 in
      let a = Vec.rmsnorm ~gain x in
      let b = Vec.rmsnorm ~gain (Vec.scale 7.0 x) in
      Vec.max_abs_diff a b < 1e-3)

(* --- Mat --------------------------------------------------------------- *)

let test_mat_gemv_manual () =
  let m = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |]; [| 5.0; 6.0 |] |] in
  (* x . m with x of length 3 *)
  check_vec "gemv" [| 19.0; 24.0 |] (Mat.gemv m [| 1.0; 1.0; 3.0 |])

let test_mat_slices () =
  let m = Mat.init ~rows:4 ~cols:6 (fun r c -> float_of_int ((r * 10) + c)) in
  let s = Mat.sub_cols m ~lo:2 ~len:2 in
  Alcotest.(check int) "cols" 2 (Mat.cols s);
  check_float "content" 13.0 (Mat.get s 1 1);
  let r = Mat.sub_rows m ~lo:1 ~len:2 in
  check_float "row slice" 10.0 (Mat.get r 0 0)

let test_mat_row_col () =
  let m = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  check_vec "row" [| 3.0; 4.0 |] (Mat.row m 1);
  check_vec "col" [| 2.0; 4.0 |] (Mat.col m 1)

let test_mat_validation () =
  Alcotest.(check bool) "ragged raises" true
    (try
       ignore (Mat.of_arrays [| [| 1.0 |]; [| 1.0; 2.0 |] |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "gemv mismatch raises" true
    (try
       ignore (Mat.gemv (Mat.create ~rows:2 ~cols:2) [| 1.0 |]);
       false
     with Invalid_argument _ -> true)

let prop_gemv_linear =
  QCheck.Test.make ~name:"gemv is linear" ~count:100
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let m = Mat.gaussian rng ~rows:7 ~cols:5 in
      let x = Vec.gaussian rng 7 and y = Vec.gaussian rng 7 in
      let lhs = Mat.gemv m (Vec.add x y) in
      let rhs = Vec.add (Mat.gemv m x) (Mat.gemv m y) in
      Vec.max_abs_diff lhs rhs < 1e-9)

let prop_gemv_split_cols =
  (* The §5 mapping relies on column-splitting a weight matrix across chips
     and concatenating results. *)
  QCheck.Test.make ~name:"column-split gemv = whole gemv" ~count:100
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let m = Mat.gaussian rng ~rows:8 ~cols:12 in
      let x = Vec.gaussian rng 8 in
      let whole = Mat.gemv m x in
      let parts =
        List.concat_map
          (fun lo -> Array.to_list (Mat.gemv (Mat.sub_cols m ~lo ~len:4) x))
          [ 0; 4; 8 ]
      in
      Vec.max_abs_diff whole (Array.of_list parts) < 1e-9)

let prop_gemv_split_rows =
  (* Row-splitting with partial-sum all-reduce, as for Wo. *)
  QCheck.Test.make ~name:"row-split partial sums = whole gemv" ~count:100
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let m = Mat.gaussian rng ~rows:12 ~cols:6 in
      let x = Vec.gaussian rng 12 in
      let whole = Mat.gemv m x in
      let partial lo =
        Mat.gemv (Mat.sub_rows m ~lo ~len:4) (Array.sub x lo 4)
      in
      let sum = Vec.add (partial 0) (Vec.add (partial 4) (partial 8)) in
      Vec.max_abs_diff whole sum < 1e-9)

(* [Mat.gemv_into] blocks its columns; every width the model runs is a
   multiple of 8, so only this property reaches the leftover columns.  The
   naive loop sums each column's rows in order and skips zero
   activations, then adds the column's total into [out] once. *)
let naive_gemv_into m x ~xo out ~oo =
  for c = 0 to Mat.cols m - 1 do
    let acc = ref 0.0 in
    for r = 0 to Mat.rows m - 1 do
      let xi = x.(xo + r) in
      if xi <> 0.0 then acc := !acc +. (xi *. Mat.get m r c)
    done;
    out.(oo + c) <- out.(oo + c) +. !acc
  done

let prop_gemv_into_naive =
  QCheck.Test.make ~name:"gemv_into = naive column loop, bit for bit" ~count:300
    QCheck.(quad (int_range 1 70) (int_range 1 40) (pair (int_range 0 5) (int_range 0 5))
              (int_range 0 100000))
    (fun (rows, cols, (xo, oo), seed) ->
      let rng = Rng.create seed in
      let m = Mat.gaussian rng ~rows ~cols in
      let x =
        Array.init (xo + rows + 3) (fun _ ->
            match Rng.int rng 4 with 0 -> 0.0 | 1 -> -0.0 | _ -> Rng.gaussian rng)
      in
      let out = Vec.gaussian rng (oo + cols + 2) in
      let expected = Array.copy out in
      Mat.gemv_into m x ~xo out ~oo;
      naive_gemv_into m x ~xo expected ~oo;
      Array.for_all2 (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b) out expected)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "hnlpu_tensor"
    [
      ( "vec",
        [
          Alcotest.test_case "arithmetic" `Quick test_vec_arith;
          Alcotest.test_case "add_inplace" `Quick test_vec_add_inplace;
          Alcotest.test_case "length mismatch" `Quick test_vec_mismatch;
          Alcotest.test_case "softmax properties" `Quick test_softmax_properties;
          Alcotest.test_case "softmax stability" `Quick test_softmax_stability;
          Alcotest.test_case "softmax masked" `Quick test_softmax_masked;
          Alcotest.test_case "rmsnorm" `Quick test_rmsnorm;
          Alcotest.test_case "rmsnorm gain" `Quick test_rmsnorm_gain;
          Alcotest.test_case "silu" `Quick test_silu;
          Alcotest.test_case "swiglu" `Quick test_swiglu;
          Alcotest.test_case "argmax/topk" `Quick test_argmax_topk;
        ] );
      qsuite "vec properties"
        [ prop_softmax_simplex; prop_rmsnorm_scale_invariant; prop_top_k_order ];
      ( "mat",
        [
          Alcotest.test_case "gemv manual" `Quick test_mat_gemv_manual;
          Alcotest.test_case "slices" `Quick test_mat_slices;
          Alcotest.test_case "row/col" `Quick test_mat_row_col;
          Alcotest.test_case "validation" `Quick test_mat_validation;
        ] );
      qsuite "mat properties"
        [ prop_gemv_linear; prop_gemv_split_cols; prop_gemv_split_rows; prop_gemv_into_naive ];
    ]
