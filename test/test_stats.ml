let check_close ?(tol = 1e-10) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* ---------- Welford ---------- *)

let test_welford_known () =
  let w = Stats.Welford.create () in
  List.iter (Stats.Welford.add w) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_close "mean" 5.0 (Stats.Welford.mean w);
  (* sample variance of this classic dataset is 32/7 *)
  check_close "variance" (32.0 /. 7.0) (Stats.Welford.variance w);
  Alcotest.(check int) "count" 8 (Stats.Welford.count w)

let test_welford_matches_batch () =
  let data = Array.init 1000 (fun i -> sin (float_of_int i) *. 3.0) in
  let w = Stats.Welford.create () in
  Array.iter (Stats.Welford.add w) data;
  let s = Stats.Summary.of_array data in
  check_close ~tol:1e-9 "mean" s.Stats.Summary.mean (Stats.Welford.mean w);
  check_close ~tol:1e-9 "variance" s.Stats.Summary.variance (Stats.Welford.variance w)

let test_welford_empty_raises () =
  let w = Stats.Welford.create () in
  Alcotest.check_raises "empty" (Invalid_argument "Welford.mean: empty accumulator")
    (fun () -> ignore (Stats.Welford.mean w))

let test_welford_merge () =
  let data = Array.init 500 (fun i -> cos (float_of_int i)) in
  let a = Stats.Welford.create () and b = Stats.Welford.create () in
  Array.iteri (fun i x -> Stats.Welford.add (if i < 200 then a else b) x) data;
  let merged = Stats.Welford.merge a b in
  let whole = Stats.Welford.create () in
  Array.iter (Stats.Welford.add whole) data;
  check_close ~tol:1e-10 "merged mean" (Stats.Welford.mean whole) (Stats.Welford.mean merged);
  check_close ~tol:1e-10 "merged var" (Stats.Welford.variance whole) (Stats.Welford.variance merged)

let test_welford_merge_empty () =
  let a = Stats.Welford.create () in
  Stats.Welford.add a 3.0;
  Stats.Welford.add a 5.0;
  let merged = Stats.Welford.merge a (Stats.Welford.create ()) in
  check_close "mean preserved" 4.0 (Stats.Welford.mean merged)

let test_welford_single_sample () =
  (* regression: variance/std_dev raised for n = 1, crashing run_mc ~n:1 *)
  let w = Stats.Welford.create () in
  Stats.Welford.add w 42.0;
  check_close "mean" 42.0 (Stats.Welford.mean w);
  check_close ~tol:0.0 "variance is 0" 0.0 (Stats.Welford.variance w);
  check_close ~tol:0.0 "std_dev is 0" 0.0 (Stats.Welford.std_dev w);
  (* the empty accumulator must still raise *)
  let empty = Stats.Welford.create () in
  Alcotest.check_raises "empty variance raises"
    (Invalid_argument "Welford.variance: empty accumulator") (fun () ->
      ignore (Stats.Welford.variance empty))

(* ---------- Summary ---------- *)

let test_summary_fields () =
  let s = Stats.Summary.of_array [| 1.0; 2.0; 3.0; 4.0 |] in
  check_close "mean" 2.5 s.Stats.Summary.mean;
  check_close "min" 1.0 s.Stats.Summary.min;
  check_close "max" 4.0 s.Stats.Summary.max;
  check_close "variance" (5.0 /. 3.0) s.Stats.Summary.variance;
  Alcotest.(check int) "count" 4 s.Stats.Summary.count

let test_summary_too_small () =
  Alcotest.check_raises "singleton"
    (Invalid_argument "Summary.of_array: needs at least two samples") (fun () ->
      ignore (Stats.Summary.of_array [| 1.0 |]))

let test_quantile_interpolation () =
  let a = [| 10.0; 20.0; 30.0; 40.0 |] in
  check_close "median" 25.0 (Stats.Summary.quantile a 0.5);
  check_close "q0" 10.0 (Stats.Summary.quantile a 0.0);
  check_close "q1" 40.0 (Stats.Summary.quantile a 1.0);
  check_close "q1/3" 20.0 (Stats.Summary.quantile a (1.0 /. 3.0))

let test_quantile_unsorted_input () =
  let a = [| 30.0; 10.0; 40.0; 20.0 |] in
  check_close "median of unsorted" 25.0 (Stats.Summary.quantile a 0.5);
  (* input untouched *)
  Alcotest.(check (array (float 0.0))) "not mutated" [| 30.0; 10.0; 40.0; 20.0 |] a

let test_quantile_domain () =
  Alcotest.check_raises "p>1" (Invalid_argument "Summary.quantile: p outside [0, 1]")
    (fun () -> ignore (Stats.Summary.quantile [| 1.0 |] 1.5))

(* ---------- Correlation ---------- *)

let test_pearson_perfect () =
  let x = Array.init 50 float_of_int in
  let y = Array.map (fun v -> (2.0 *. v) +. 3.0) x in
  check_close ~tol:1e-12 "corr 1" 1.0 (Stats.Correlation.pearson x y);
  let y_neg = Array.map (fun v -> -.v) x in
  check_close ~tol:1e-12 "corr -1" (-1.0) (Stats.Correlation.pearson x y_neg)

let test_pearson_zero_variance () =
  Alcotest.check_raises "flat" (Invalid_argument "Correlation.pearson: zero variance")
    (fun () ->
      ignore (Stats.Correlation.pearson [| 1.0; 1.0; 1.0 |] [| 1.0; 2.0; 3.0 |]))

let test_covariance_known () =
  let x = [| 1.0; 2.0; 3.0 |] and y = [| 2.0; 4.0; 6.0 |] in
  (* cov = 2 * var(x) = 2 * 1 = 2 *)
  check_close "cov" 2.0 (Stats.Correlation.covariance x y)

let test_column_covariance_diagonal () =
  (* two independent-ish columns built deterministically *)
  let n = 2000 in
  let m =
    Linalg.Mat.init n 2 (fun i j ->
        if j = 0 then sin (float_of_int i *. 0.7) else cos (float_of_int i *. 1.3))
  in
  let cov = Stats.Correlation.column_covariance m in
  Alcotest.(check int) "shape" 2 (Linalg.Mat.rows cov);
  (* sin/cos streams at incommensurate frequencies are near-uncorrelated *)
  Alcotest.(check bool) "off-diagonal small" true (Float.abs (Linalg.Mat.get cov 0 1) < 0.05)

let test_column_correlation_unit_diagonal () =
  let n = 500 in
  let m =
    Linalg.Mat.init n 3 (fun i j -> sin (float_of_int ((i * (j + 1)) + j)))
  in
  let corr = Stats.Correlation.column_correlation m in
  for j = 0 to 2 do
    check_close ~tol:1e-12 "unit diagonal" 1.0 (Linalg.Mat.get corr j j)
  done

(* ---------- qcheck ---------- *)

let arb_samples =
  QCheck.(list_of_size Gen.(int_range 2 60) (float_range (-100.0) 100.0))

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantiles are monotone in p" ~count:100 arb_samples
    (fun l ->
      let a = Array.of_list l in
      Stats.Summary.quantile a 0.25 <= Stats.Summary.quantile a 0.75)

let prop_variance_nonneg =
  QCheck.Test.make ~name:"variance is non-negative" ~count:100 arb_samples
    (fun l -> (Stats.Summary.of_array (Array.of_list l)).Stats.Summary.variance >= 0.0)

let prop_mean_within_range =
  QCheck.Test.make ~name:"mean lies within [min, max]" ~count:100 arb_samples
    (fun l ->
      let s = Stats.Summary.of_array (Array.of_list l) in
      s.Stats.Summary.mean >= s.Stats.Summary.min -. 1e-9
      && s.Stats.Summary.mean <= s.Stats.Summary.max +. 1e-9)

let welford_of_list l =
  let w = Stats.Welford.create () in
  List.iter (Stats.Welford.add w) l;
  w

let welford_close a b =
  Stats.Welford.count a = Stats.Welford.count b
  && Float.abs (Stats.Welford.mean a -. Stats.Welford.mean b) < 1e-9
  && Float.abs (Stats.Welford.variance a -. Stats.Welford.variance b) < 1e-9

let arb_nonempty =
  QCheck.(list_of_size Gen.(int_range 1 40) (float_range (-100.0) 100.0))

let prop_merge_associative =
  QCheck.Test.make ~name:"Welford.merge is associative" ~count:100
    QCheck.(triple arb_nonempty arb_nonempty arb_nonempty)
    (fun (la, lb, lc) ->
      let a () = welford_of_list la
      and b () = welford_of_list lb
      and c () = welford_of_list lc in
      welford_close
        (Stats.Welford.merge (Stats.Welford.merge (a ()) (b ())) (c ()))
        (Stats.Welford.merge (a ()) (Stats.Welford.merge (b ()) (c ()))))

let prop_merge_permutation_invariant =
  QCheck.Test.make ~name:"Welford.merge is order-insensitive" ~count:100
    QCheck.(triple arb_nonempty arb_nonempty arb_nonempty)
    (fun (la, lb, lc) ->
      let merged order =
        List.fold_left
          (fun acc l -> Stats.Welford.merge acc (welford_of_list l))
          (Stats.Welford.create ()) order
      in
      let sequential = welford_of_list (la @ lb @ lc) in
      welford_close (merged [ la; lb; lc ]) (merged [ lc; la; lb ])
      && welford_close (merged [ la; lb; lc ]) sequential)

let () =
  Alcotest.run "stats"
    [
      ( "welford",
        [
          Alcotest.test_case "known dataset" `Quick test_welford_known;
          Alcotest.test_case "matches batch summary" `Quick test_welford_matches_batch;
          Alcotest.test_case "empty raises" `Quick test_welford_empty_raises;
          Alcotest.test_case "merge equivalence" `Quick test_welford_merge;
          Alcotest.test_case "merge with empty" `Quick test_welford_merge_empty;
          Alcotest.test_case "single sample" `Quick test_welford_single_sample;
        ] );
      ( "summary",
        [
          Alcotest.test_case "fields" `Quick test_summary_fields;
          Alcotest.test_case "too small raises" `Quick test_summary_too_small;
          Alcotest.test_case "quantile interpolation" `Quick test_quantile_interpolation;
          Alcotest.test_case "quantile unsorted input" `Quick test_quantile_unsorted_input;
          Alcotest.test_case "quantile domain" `Quick test_quantile_domain;
        ] );
      ( "correlation",
        [
          Alcotest.test_case "perfect correlation" `Quick test_pearson_perfect;
          Alcotest.test_case "zero variance raises" `Quick test_pearson_zero_variance;
          Alcotest.test_case "covariance known" `Quick test_covariance_known;
          Alcotest.test_case "column covariance" `Quick test_column_covariance_diagonal;
          Alcotest.test_case "correlation unit diagonal" `Quick test_column_correlation_unit_diagonal;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_quantile_monotone; prop_variance_nonneg; prop_mean_within_range;
            prop_merge_associative; prop_merge_permutation_invariant ] );
    ]
