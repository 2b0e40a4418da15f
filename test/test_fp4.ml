open Hnlpu_fp4

(* --- Fp4 codec ------------------------------------------------------- *)

let expected_values =
  (* code -> decoded value, E2M1 *)
  [
    (0, 0.0); (1, 0.5); (2, 1.0); (3, 1.5); (4, 2.0); (5, 3.0); (6, 4.0);
    (7, 6.0); (8, -0.0); (9, -0.5); (10, -1.0); (11, -1.5); (12, -2.0);
    (13, -3.0); (14, -4.0); (15, -6.0);
  ]

let test_decode_table () =
  List.iter
    (fun (c, v) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "code %d" c)
        v
        (Fp4.to_float (Fp4.of_code c)))
    expected_values

let test_of_code_bounds () =
  Alcotest.check_raises "negative" (Invalid_argument "Fp4.of_code: code out of range")
    (fun () -> ignore (Fp4.of_code (-1)));
  Alcotest.check_raises "too big" (Invalid_argument "Fp4.of_code: code out of range")
    (fun () -> ignore (Fp4.of_code 16))

let test_roundtrip_exact () =
  (* Every representable value must quantize to itself. *)
  List.iter
    (fun c ->
      let v = Fp4.to_float c in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "roundtrip %g" v)
        v
        (Fp4.to_float (Fp4.of_float v)))
    Fp4.all

let test_of_float_saturates () =
  Alcotest.(check (float 0.0)) "big" 6.0 (Fp4.to_float (Fp4.of_float 1e9));
  Alcotest.(check (float 0.0)) "big neg" (-6.0) (Fp4.to_float (Fp4.of_float (-1e9)))

let test_of_float_nearest () =
  Alcotest.(check (float 0.0)) "0.6 -> 0.5" 0.5 (Fp4.to_float (Fp4.of_float 0.6));
  Alcotest.(check (float 0.0)) "0.8 -> 1.0" 1.0 (Fp4.to_float (Fp4.of_float 0.8));
  Alcotest.(check (float 0.0)) "2.4 -> 2.0" 2.0 (Fp4.to_float (Fp4.of_float 2.4));
  Alcotest.(check (float 0.0)) "-4.9 -> -6 or -4 (nearest is -4)" (-4.0)
    (Fp4.to_float (Fp4.of_float (-4.9)));
  Alcotest.(check (float 0.0)) "5.1 -> 6" 6.0 (Fp4.to_float (Fp4.of_float 5.1))

let test_neg_involution () =
  List.iter
    (fun c ->
      Alcotest.(check bool) "neg . neg = id" true (Fp4.equal c (Fp4.neg (Fp4.neg c)));
      Alcotest.(check (float 0.0)) "negates value" (-.Fp4.to_float c)
        (Fp4.to_float (Fp4.neg c)))
    Fp4.all

let test_half_units () =
  List.iter
    (fun c ->
      Alcotest.(check (float 0.0)) "half-units exact"
        (2.0 *. Fp4.to_float c)
        (float_of_int (Fp4.to_half_units c));
      match Fp4.of_half_units (Fp4.to_half_units c) with
      | None -> Alcotest.fail "of_half_units must invert"
      | Some c' ->
        Alcotest.(check (float 0.0)) "value preserved" (Fp4.to_float c) (Fp4.to_float c'))
    Fp4.all;
  Alcotest.(check bool) "5 half-units unrepresentable" true
    (Fp4.of_half_units 5 = None)

let prop_of_float_is_nearest =
  QCheck.Test.make ~name:"of_float picks a nearest representable" ~count:500
    QCheck.(float_bound_exclusive 16.0)
    (fun x ->
      let q = Fp4.to_float (Fp4.of_float x) in
      let clamped = Float.min x 6.0 in
      let err = Float.abs (q -. clamped) in
      List.for_all (fun c -> err <= Float.abs (Fp4.to_float c -. clamped) +. 1e-12) Fp4.all)

(* Oracle: nearest magnitude by an 8-way search, a tie going to the even
   code.  The midpoint ladder in [Fp4.of_float] must agree with it. *)
let of_float_by_search x =
  if Float.is_nan x then invalid_arg "of_float_by_search: nan";
  let magnitudes = Fp4.unique_magnitudes in
  let sign = x < 0.0 in
  let m = Float.abs x in
  let best = ref 0 and best_err = ref infinity in
  for i = 0 to 7 do
    let err = Float.abs (m -. magnitudes.(i)) in
    if err < !best_err || (err = !best_err && i land 1 = 0 && !best land 1 = 1) then begin
      best := i;
      best_err := err
    end
  done;
  if !best = 0 then 0 else if sign then !best lor 8 else !best

let test_of_float_matches_search_at_edges () =
  let midpoints = [ 0.25; 0.75; 1.25; 1.75; 2.5; 3.5; 5.0 ] in
  let around m = [ Float.pred m; m; Float.succ m ] in
  let edges =
    (* Every quarter unit up to 7.5: [of_float] reads its code by them. *)
    List.concat_map around
      (midpoints @ Array.to_list Fp4.unique_magnitudes @ List.init 31 (fun k -> float_of_int k /. 4.0))
    @ [ 0.0; Float.min_float; Float.pred Float.min_float; 4.9e-324; 1e-310; 1e9; 2.0 ** 53.0 ]
  in
  List.iter
    (fun x ->
      List.iter
        (fun x ->
          Alcotest.(check int) (Printf.sprintf "of_float %h" x) (of_float_by_search x)
            (Fp4.code (Fp4.of_float x)))
        [ x; -.x ])
    edges;
  (* Beyond 2^53 the search's [m -. 6.0] rounds, and from 2^56 on every
     candidate's error rounds to [m], so the search returns 0 for
     infinities.  [Fp4.of_float] saturates, as documented. *)
  Alcotest.(check int) "+inf saturates" 7 (Fp4.code (Fp4.of_float infinity));
  Alcotest.(check int) "-inf saturates" 15 (Fp4.code (Fp4.of_float neg_infinity));
  Alcotest.(check int) "2^60 saturates" 7 (Fp4.code (Fp4.of_float (2.0 ** 60.0)));
  Alcotest.check_raises "nan" (Invalid_argument "Fp4.of_float: nan") (fun () ->
      ignore (Fp4.of_float Float.nan))

let prop_of_float_matches_search =
  (* Magnitudes spread over [2^-1074, 2^53): the search is exact there. *)
  QCheck.Test.make ~name:"of_float = 8-way search on random floats" ~count:2000
    QCheck.(triple bool (float_bound_exclusive 1.0) (int_range (-1074) 52))
    (fun (neg, f, e) ->
      let m = if e < -1020 then Float.ldexp f e else Float.ldexp (1.0 +. f) e in
      let x = if neg then -.m else m in
      let y = if neg then -.(8.0 *. f) else 8.0 *. f in
      Fp4.code (Fp4.of_float x) = of_float_by_search x
      && Fp4.code (Fp4.of_float y) = of_float_by_search y)

(* --- Blockscale ------------------------------------------------------ *)

let test_blockscale_roundtrip_representable () =
  (* A block whose elements are already scaled representables must survive. *)
  let xs = [| 6.0; 3.0; -1.5; 0.5; 0.0; -6.0; 2.0; 4.0 |] in
  let b = Blockscale.quantize_block xs in
  Alcotest.(check (array (float 0.0))) "exact" xs (Blockscale.dequantize_block b)

let test_blockscale_scaling () =
  (* Same shape at 2^10 scale: scale must absorb the magnitude. *)
  let xs = Array.map (fun x -> x *. 1024.0) [| 6.0; 3.0; -1.5; 0.5 |] in
  let b = Blockscale.quantize_block xs in
  Alcotest.(check (array (float 0.0))) "exact at scale" xs (Blockscale.dequantize_block b)

let test_blockscale_zero_block () =
  let xs = Array.make 32 0.0 in
  let b = Blockscale.quantize_block xs in
  Alcotest.(check (array (float 0.0))) "zeros" xs (Blockscale.dequantize_block b)

let test_blockscale_vector () =
  let rng = Thelp.rng () in
  let xs = Array.init 100 (fun _ -> Hnlpu_util.Rng.gaussian rng) in
  let ys = Blockscale.dequantize (Blockscale.quantize xs) in
  Alcotest.(check int) "length preserved" 100 (Array.length ys)

let test_blockscale_error_bound () =
  (* Gaussian data: MXFP4 RMS relative error is typically ~10%; assert a
     generous envelope to catch regressions without overfitting. *)
  let rng = Thelp.rng ~seed:99 () in
  let xs = Array.init 4096 (fun _ -> Hnlpu_util.Rng.gaussian rng) in
  let e = Blockscale.quantization_error xs in
  Alcotest.(check bool) (Printf.sprintf "rms rel err %.3f < 0.25" e) true (e < 0.25)

let test_blockscale_dequantize_is_concat () =
  (* One-pass dequantize against the per-block oracle, short last block
     and an empty vector included. *)
  let rng = Thelp.rng ~seed:5 () in
  List.iter
    (fun n ->
      let xs =
        Array.init n (fun i -> Hnlpu_util.Rng.gaussian rng *. Float.ldexp 1.0 ((i mod 41) - 20))
      in
      let blocks = Blockscale.quantize xs in
      Alcotest.(check (array (float 0.0)))
        (Printf.sprintf "n = %d" n)
        (Array.concat (Array.to_list (Array.map Blockscale.dequantize_block blocks)))
        (Blockscale.dequantize blocks))
    [ 0; 1; 31; 32; 33; 100; 1024 ]

(* The E8M0 exponent's specification: the smallest e >= -126 with
   amax <= 6 * 2^e; below 6 * 2^-126, the log-seeded search. *)
let spec_scale_exp amax =
  let pow2 = Float.ldexp 1.0 in
  if amax = 0.0 then 0
  else if amax >= 6.0 *. pow2 (-126) then begin
    let rec up e = if amax <= 6.0 *. pow2 e then e else up (e + 1) in
    up (-126)
  end
  else begin
    let e = ref (int_of_float (Float.ceil (log (amax /. 6.0) /. log 2.0))) in
    while amax /. pow2 !e > 6.0 do
      incr e
    done;
    while !e > -126 && amax /. pow2 (!e - 1) <= 6.0 do
      decr e
    done;
    !e
  end

let test_blockscale_exponent_spec () =
  let pow2 = Float.ldexp 1.0 in
  let amaxes =
    List.concat
      [
        (* Subnormals and the tiny-amax boundary. *)
        [ 4.9e-324; 1e-320; 2.2e-310; Float.min_float; 6.0 *. pow2 (-127) ];
        List.concat_map
          (fun x -> [ Float.pred x; x; Float.succ x ])
          [ 6.0 *. pow2 (-126); 6.0 *. pow2 (-126) /. 4.0 ];
        (* 6 * 2^e and one ulp either side, over the whole exponent range. *)
        List.concat_map
          (fun e ->
            let x = 6.0 *. pow2 e in
            [ Float.pred x; x; Float.succ x ])
          (List.init 200 (fun i -> (i * 11) - 1100) @ [ -126; -125; -1; 0; 1; 1019; 1020; 1021 ]);
        (* Mantissa 0.75 (1.5 * 2^k) boundaries, and mantissa 0.5. *)
        List.concat_map
          (fun k ->
            let x = 1.5 *. pow2 k in
            [ Float.pred x; x; Float.succ x; pow2 k; Float.pred (pow2 k) ])
          [ -1070; -1030; -1000; -124; -123; -10; 0; 2; 3; 100; 1020; 1023 ];
        [ pow2 1020; Float.succ (pow2 1020); Float.max_float ];
      ]
    |> List.filter Float.is_finite
  in
  List.iter
    (fun amax ->
      List.iter
        (fun x ->
          Alcotest.(check int)
            (Printf.sprintf "scale_exp of %h" x)
            (spec_scale_exp amax)
            (Blockscale.quantize_block [| 0.0; x; amax /. 2.0 |]).Blockscale.scale_exp)
        [ amax; -.amax ])
    amaxes

let test_blockscale_rejects_non_finite () =
  let expect_index name i f =
    Alcotest.check_raises name
      (Invalid_argument (Printf.sprintf "Blockscale.quantize: non-finite element at index %d" i))
      (fun () -> ignore (f ()))
  in
  List.iter
    (fun (label, bad) ->
      let at n i = Array.init n (fun k -> if k = i then bad else float_of_int k) in
      expect_index (label ^ " first, block") 0 (fun () -> Blockscale.quantize_block (at 32 0));
      expect_index (label ^ " mid-block, block") 13 (fun () -> Blockscale.quantize_block (at 32 13));
      expect_index (label ^ " first, vector") 0 (fun () -> Blockscale.quantize (at 70 0));
      expect_index (label ^ " mid-block, vector") 45 (fun () -> Blockscale.quantize (at 70 45)))
    [ ("+inf", infinity); ("-inf", neg_infinity); ("nan", Float.nan) ]

(* An adversarial corpus: the E2M1 grid points and midpoints (both signs)
   at every binary exponent from -1080 to 1030, exact and one ulp either
   side, plus subnormal, max_float and all-subnormal-powers blocks. *)
let adversarial_blocks () =
  let mantissas =
    [| 0.0; 0.25; 0.5; 0.75; 1.0; 1.25; 1.5; 1.75; 2.0; 2.5; 3.0; 3.5; 4.0; 5.0; 6.0; 5.5 |]
  in
  let blocks = ref [] in
  for e = -1080 to 1030 do
    List.iter
      (fun nudge ->
        let b =
          Array.init 32 (fun j ->
              let x = nudge (Float.ldexp mantissas.(j land 15) e) in
              if j >= 16 then -.x else x)
        in
        if Array.for_all Float.is_finite b then blocks := b :: !blocks)
      [ Fun.id; Float.pred; Float.succ ]
  done;
  blocks :=
    [| 4.9e-324; 1e-320; -2.2e-310; Float.min_float; Float.max_float; -.Float.max_float |]
    :: !blocks;
  blocks := Array.init 32 (fun j -> Float.ldexp 1.0 (-1074 + j)) :: !blocks;
  List.rev !blocks

(* Digests of a representation-free rendering: each block's exponent and
   codes, and the bits of each dequantized float. *)
let codes_digest blocks =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (b : Blockscale.t) ->
      Buffer.add_string buf (string_of_int b.Blockscale.scale_exp);
      Buffer.add_char buf ':';
      Bytes.iter
        (fun c -> Buffer.add_char buf "0123456789abcdef".[Char.code c])
        b.Blockscale.codes;
      Buffer.add_char buf ';')
    blocks;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let floats_digest ys =
  let buf = Buffer.create 4096 in
  Array.iter (fun y -> Buffer.add_string buf (Printf.sprintf "%Lx," (Int64.bits_of_float y))) ys;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_blockscale_digests_pinned () =
  (* Pinned from the [Fp4.t array] block layout that byte codes replaced:
     the layout changed, no code and no decoded bit did. *)
  let corpus = adversarial_blocks () in
  Alcotest.(check int) "corpus size" 6317 (List.length corpus);
  let blocks = List.map Blockscale.quantize_block corpus in
  Alcotest.(check string) "quantize_block codes" "930896a65cb05eb420bd05b3e1461305"
    (codes_digest blocks);
  Alcotest.(check string) "dequantize_block bits" "a3d5f40eb9281835626a65f76a18622f"
    (floats_digest (Array.concat (List.map Blockscale.dequantize_block blocks)));
  let whole = Blockscale.quantize (Array.concat corpus) in
  Alcotest.(check string) "quantize of the concatenation" "cca0472d2139633b94ded2ce04e5da4f"
    (codes_digest (Array.to_list whole));
  Alcotest.(check string) "dequantize of the concatenation" "a3d5f40eb9281835626a65f76a18622f"
    (floats_digest (Blockscale.dequantize whole));
  let rng = Hnlpu_util.Rng.create 3 in
  let gauss = Blockscale.quantize (Array.init (1 lsl 18) (fun _ -> Hnlpu_util.Rng.gaussian rng)) in
  Alcotest.(check string) "quantize of 2^18 Gaussians" "6f95eca0e4298a6d98f73eeb83cb50e6"
    (codes_digest (Array.to_list gauss));
  Alcotest.(check string) "dequantize of 2^18 Gaussians" "b835c5939a112423144d36c31eca6065"
    (floats_digest (Blockscale.dequantize gauss))

let test_blockscale_footprint () =
  (* One byte per code: 10 words per full block (record, code bytes and
     the array slot), 81,921 for 2^18 elements; 303,105 when each code
     took a word. *)
  let rng = Hnlpu_util.Rng.create 3 in
  let blocks = Blockscale.quantize (Array.init (1 lsl 18) (fun _ -> Hnlpu_util.Rng.gaussian rng)) in
  let words = Obj.reachable_words (Obj.repr blocks) in
  Alcotest.(check bool) (Printf.sprintf "%d words <= 82,000" words) true (words <= 82_000)

let prop_blockscale_max_in_range =
  QCheck.Test.make ~name:"block scale keeps elements in E2M1 range" ~count:200
    QCheck.(array_of_size (Gen.int_range 1 32) (float_bound_exclusive 1e6))
    (fun xs ->
      let b = Blockscale.quantize_block xs in
      Bytes.for_all
        (fun c -> Char.code c < 16 && Float.abs (Fp4.to_float (Fp4.of_code (Char.code c))) <= 6.0)
        b.Blockscale.codes)

(* --- Bitserial -------------------------------------------------------- *)

let test_planes_roundtrip () =
  let v = [| 0; 1; -1; 127; -128; 42; -7; 100 |] in
  let ps = Bitserial.planes ~bits:8 v in
  Alcotest.(check int) "8 planes" 8 (Array.length ps);
  Alcotest.(check (array int)) "roundtrip" v (Bitserial.reconstruct ~bits:8 ps)

let test_plane_weights () =
  Alcotest.(check int) "lsb" 1 (Bitserial.plane_weight ~bits:8 0);
  Alcotest.(check int) "bit 3" 8 (Bitserial.plane_weight ~bits:8 3);
  Alcotest.(check int) "sign plane" (-128) (Bitserial.plane_weight ~bits:8 7)

let test_range_check () =
  Alcotest.(check bool) "raises" true
    (try
       Bitserial.check_range ~bits:8 [| 128 |];
       false
     with Invalid_argument _ -> true)

let prop_planes_roundtrip =
  QCheck.Test.make ~name:"bit-plane roundtrip, arbitrary widths" ~count:300
    QCheck.(pair (int_range 2 16) (list_of_size (Gen.int_range 1 64) int))
    (fun (bits, xs) ->
      let lo = Bitserial.min_int_for bits and hi = Bitserial.max_int_for bits in
      let v = Array.of_list (List.map (fun x -> lo + (abs x mod (hi - lo + 1))) xs) in
      Bitserial.reconstruct ~bits (Bitserial.planes ~bits v) = v)

let prop_dot_by_planes =
  QCheck.Test.make ~name:"bit-serial dot = direct dot" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 64) (pair (int_range (-12) 12) (int_range (-128) 127)))
    (fun pairs ->
      let weights = Array.of_list (List.map fst pairs) in
      let v = Array.of_list (List.map snd pairs) in
      let direct =
        Array.to_list (Array.mapi (fun i w -> w * v.(i)) weights)
        |> List.fold_left ( + ) 0
      in
      Bitserial.dot_by_planes ~bits:8 ~weights v = direct)

let test_popcount_plane () =
  let p = Bytes.of_string "\001\000\001\001\000" in
  Alcotest.(check int) "popcount" 3 (Bitserial.popcount_plane p)

let popcount_by_bits x =
  let c = ref 0 in
  for b = 0 to Sys.int_size - 1 do
    if (x lsr b) land 1 = 1 then incr c
  done;
  !c

let test_popcount_words () =
  List.iter
    (fun x -> Alcotest.(check int) (Printf.sprintf "popcount %x" x) (popcount_by_bits x) (Bitserial.popcount x))
    [ 0; 1; 3; (1 lsl 61) lor 1; (1 lsl 62) - 1; max_int; -1; min_int ]

let prop_packed_popcount =
  (* Random planes up to 300 elements (several 62-bit words), random widths,
     random region masks: each packed count equals the byte view's. *)
  QCheck.Test.make ~name:"packed popcount = byte-plane popcount" ~count:300
    QCheck.(triple (int_range 2 16) (int_range 0 300) (int_range 0 1000000))
    (fun (bits, n, seed) ->
      let rng = Hnlpu_util.Rng.create seed in
      let lo = Bitserial.min_int_for bits in
      let v = Array.init n (fun _ -> lo + Hnlpu_util.Rng.int rng (1 lsl bits)) in
      let region = Array.init n (fun _ -> Hnlpu_util.Rng.int rng 3 = 0) in
      let words = Bitserial.words_for n in
      let all = Array.make words 0 and mask = Array.make words 0 in
      for i = 0 to n - 1 do
        Bitserial.set_element all ~pos:0 i;
        if region.(i) then Bitserial.set_element mask ~pos:0 i
      done;
      let bytes = Bitserial.planes ~bits v and packed = Bitserial.packed_planes ~bits v in
      let popcount_and ~pos mask =
        let c = ref 0 in
        for k = 0 to words - 1 do
          c := !c + Bitserial.popcount (packed.(pos + k) land mask.(k))
        done;
        !c
      in
      Array.length packed = bits * words
      && List.for_all
           (fun b ->
             let p = bytes.(b) in
             let in_region = ref 0 in
             Array.iteri (fun i r -> if r then in_region := !in_region + Bitserial.plane_get p i) region;
             let pos = b * words in
             popcount_and ~pos all = Bitserial.popcount_plane p
             && popcount_and ~pos mask = !in_region)
           (List.init bits Fun.id))

(* --- Csa --------------------------------------------------------------- *)

let test_csa_exact_sum () =
  let xs = [| 1; 2; 3; 4; 5; 6; 7; 255 |] in
  let sum, _ = Csa.reduce ~width:8 xs in
  Alcotest.(check int) "sum" (Array.fold_left ( + ) 0 xs) sum

let test_csa_empty () =
  let sum, stats = Csa.reduce ~width:8 [||] in
  Alcotest.(check int) "zero" 0 sum;
  Alcotest.(check int) "no adders" 0 stats.Csa.full_adders

let test_csa_single () =
  let sum, stats = Csa.reduce ~width:8 [| 200 |] in
  Alcotest.(check int) "identity" 200 sum;
  Alcotest.(check int) "depth 0" 0 stats.Csa.depth

let test_csa_structure_grows () =
  let s16 = Csa.tree ~width:8 ~operands:16 in
  let s256 = Csa.tree ~width:8 ~operands:256 in
  Alcotest.(check bool) "more operands, more adders" true
    (s256.Csa.full_adders > s16.Csa.full_adders);
  Alcotest.(check bool) "more operands, deeper" true (s256.Csa.depth > s16.Csa.depth)

let prop_csa_sum =
  QCheck.Test.make ~name:"CSA reduce = integer sum" ~count:300
    QCheck.(list_of_size (Gen.int_range 0 200) (int_range 0 4095))
    (fun xs ->
      let a = Array.of_list xs in
      fst (Csa.reduce ~width:12 a) = List.fold_left ( + ) 0 xs)

let prop_csa_stats_value_independent =
  QCheck.Test.make ~name:"CSA structure depends only on shape" ~count:100
    QCheck.(pair (int_range 1 12) (list_of_size (Gen.int_range 0 100) (int_range 0 4095)))
    (fun (width, xs) ->
      let a = Array.of_list (List.map (fun x -> x land ((1 lsl width) - 1)) xs) in
      snd (Csa.reduce ~width a) = Csa.tree ~width ~operands:(Array.length a))

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "hnlpu_fp4"
    [
      ( "fp4",
        [
          Alcotest.test_case "decode table" `Quick test_decode_table;
          Alcotest.test_case "of_code bounds" `Quick test_of_code_bounds;
          Alcotest.test_case "roundtrip exact" `Quick test_roundtrip_exact;
          Alcotest.test_case "saturation" `Quick test_of_float_saturates;
          Alcotest.test_case "nearest rounding" `Quick test_of_float_nearest;
          Alcotest.test_case "negation involution" `Quick test_neg_involution;
          Alcotest.test_case "half units" `Quick test_half_units;
          Alcotest.test_case "of_float = search at edges" `Quick
            test_of_float_matches_search_at_edges;
        ] );
      qsuite "fp4 properties" [ prop_of_float_is_nearest; prop_of_float_matches_search ];
      ( "blockscale",
        [
          Alcotest.test_case "roundtrip representable" `Quick test_blockscale_roundtrip_representable;
          Alcotest.test_case "power-of-two scaling" `Quick test_blockscale_scaling;
          Alcotest.test_case "zero block" `Quick test_blockscale_zero_block;
          Alcotest.test_case "vector api" `Quick test_blockscale_vector;
          Alcotest.test_case "error bound" `Quick test_blockscale_error_bound;
          Alcotest.test_case "dequantize = concat of blocks" `Quick
            test_blockscale_dequantize_is_concat;
          Alcotest.test_case "scale exponent = spec" `Quick test_blockscale_exponent_spec;
          Alcotest.test_case "digests pinned" `Quick test_blockscale_digests_pinned;
          Alcotest.test_case "footprint" `Quick test_blockscale_footprint;
          Alcotest.test_case "non-finite input is located" `Quick
            test_blockscale_rejects_non_finite;
        ] );
      qsuite "blockscale properties" [ prop_blockscale_max_in_range ];
      ( "bitserial",
        [
          Alcotest.test_case "roundtrip" `Quick test_planes_roundtrip;
          Alcotest.test_case "plane weights" `Quick test_plane_weights;
          Alcotest.test_case "range check" `Quick test_range_check;
          Alcotest.test_case "popcount plane" `Quick test_popcount_plane;
          Alcotest.test_case "popcount words" `Quick test_popcount_words;
        ] );
      qsuite "bitserial properties"
        [ prop_planes_roundtrip; prop_dot_by_planes; prop_packed_popcount ];
      ( "csa",
        [
          Alcotest.test_case "exact sum" `Quick test_csa_exact_sum;
          Alcotest.test_case "empty" `Quick test_csa_empty;
          Alcotest.test_case "single" `Quick test_csa_single;
          Alcotest.test_case "structure grows" `Quick test_csa_structure_grows;
        ] );
      qsuite "csa properties" [ prop_csa_sum; prop_csa_stats_value_independent ];
    ]
