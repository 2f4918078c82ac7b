module Mat = Linalg.Mat
module Vec = Linalg.Vec

let check_close ?(tol = 1e-10) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* deterministic pseudo-random matrix builders *)
let lcg_stream seed =
  let state = ref seed in
  fun () ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    (float_of_int !state /. 1073741824.0) -. 0.5

let random_mat seed rows cols =
  let next = lcg_stream seed in
  Mat.init rows cols (fun _ _ -> next ())

let random_spd seed n =
  let b = random_mat seed n n in
  let a = Mat.mul b (Mat.transpose b) in
  (* add n * I to be safely positive definite *)
  Mat.add a (Mat.scale (0.1 *. float_of_int n) (Mat.identity n))

let random_sym seed n =
  let b = random_mat seed n n in
  Mat.scale 0.5 (Mat.add b (Mat.transpose b))

(* ---------- Vec ---------- *)

let test_vec_dot () =
  check_close "dot" 32.0 (Vec.dot [| 1.0; 2.0; 3.0 |] [| 4.0; 5.0; 6.0 |])

let test_vec_dot_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Vec.dot: length mismatch (2 vs 3)") (fun () ->
      ignore (Vec.dot [| 1.0; 2.0 |] [| 1.0; 2.0; 3.0 |]))

let test_vec_norms () =
  check_close "norm2" 5.0 (Vec.norm2 [| 3.0; 4.0 |]);
  check_close "norm_inf" 4.0 (Vec.norm_inf [| 3.0; -4.0 |])

let test_vec_axpy () =
  let y = [| 1.0; 1.0 |] in
  Vec.axpy 2.0 [| 1.0; 2.0 |] y;
  Alcotest.(check (array (float 1e-12))) "axpy" [| 3.0; 5.0 |] y

let test_vec_normalize () =
  let v = Vec.normalize [| 3.0; 4.0 |] in
  check_close "unit norm" 1.0 (Vec.norm2 v);
  Alcotest.check_raises "zero vector" (Invalid_argument "Vec.normalize: zero vector")
    (fun () -> ignore (Vec.normalize [| 0.0; 0.0 |]))

let test_vec_add_sub_scale () =
  Alcotest.(check (array (float 1e-12))) "add" [| 3.0; 5.0 |]
    (Vec.add [| 1.0; 2.0 |] [| 2.0; 3.0 |]);
  Alcotest.(check (array (float 1e-12))) "sub" [| -1.0; -1.0 |]
    (Vec.sub [| 1.0; 2.0 |] [| 2.0; 3.0 |]);
  Alcotest.(check (array (float 1e-12))) "scale" [| 2.0; 4.0 |]
    (Vec.scale 2.0 [| 1.0; 2.0 |])

(* ---------- Mat ---------- *)

let test_mat_get_set () =
  let m = Mat.create 2 3 in
  Mat.set m 1 2 5.0;
  check_close "set/get" 5.0 (Mat.get m 1 2);
  Alcotest.check_raises "bounds"
    (Invalid_argument "Mat: index (2, 0) out of bounds for 2x3") (fun () ->
      ignore (Mat.get m 2 0))

let test_mat_identity_mul () =
  let a = random_mat 7 5 5 in
  let i5 = Mat.identity 5 in
  check_close "I*A = A" 0.0 (Mat.max_abs_diff a (Mat.mul i5 a));
  check_close "A*I = A" 0.0 (Mat.max_abs_diff a (Mat.mul a i5))

let test_mat_mul_known () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Mat.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Mat.mul a b in
  check_close "c00" 19.0 (Mat.get c 0 0);
  check_close "c01" 22.0 (Mat.get c 0 1);
  check_close "c10" 43.0 (Mat.get c 1 0);
  check_close "c11" 50.0 (Mat.get c 1 1)

let test_mat_mul_associative () =
  let a = random_mat 1 4 6 and b = random_mat 2 6 3 and c = random_mat 3 3 5 in
  let left = Mat.mul (Mat.mul a b) c in
  let right = Mat.mul a (Mat.mul b c) in
  Alcotest.(check bool) "assoc" true (Mat.max_abs_diff left right < 1e-12)

let test_mat_transpose_involution () =
  let a = random_mat 4 3 7 in
  check_close "transpose twice" 0.0 (Mat.max_abs_diff a (Mat.transpose (Mat.transpose a)))

let test_mat_mul_vec_consistency () =
  let a = random_mat 11 4 6 in
  let x = Array.init 6 (fun i -> float_of_int (i + 1)) in
  let y1 = Mat.mul_vec a x in
  let xm = Mat.init 6 1 (fun i _ -> x.(i)) in
  let y2 = Mat.mul a xm in
  Array.iteri (fun i v -> check_close "mul_vec vs mul" (Mat.get y2 i 0) v) y1

let test_mat_mul_vec_transposed () =
  let a = random_mat 13 4 6 in
  let x = Array.init 4 (fun i -> float_of_int i -. 1.5) in
  let y1 = Mat.mul_vec_transposed a x in
  let y2 = Mat.mul_vec (Mat.transpose a) x in
  Array.iteri (fun i v -> check_close "matches explicit transpose" y2.(i) v) y1

let test_mat_trace () =
  check_close "trace" 5.0 (Mat.trace (Mat.of_arrays [| [| 1.0; 9.0 |]; [| 0.0; 4.0 |] |]))

let test_mat_of_arrays_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Mat.of_arrays: ragged rows")
    (fun () -> ignore (Mat.of_arrays [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

let test_mat_rows_cols_roundtrip () =
  let a = random_mat 3 3 4 in
  let arrays = Mat.to_arrays a in
  check_close "roundtrip" 0.0 (Mat.max_abs_diff a (Mat.of_arrays arrays))

let test_mat_is_symmetric () =
  Alcotest.(check bool) "sym" true (Mat.is_symmetric (random_spd 5 6));
  Alcotest.(check bool) "not sym" false (Mat.is_symmetric (random_mat 5 6 6))

let test_mat_row_col () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check (array (float 0.0))) "row" [| 3.0; 4.0 |] (Mat.row a 1);
  Alcotest.(check (array (float 0.0))) "col" [| 2.0; 4.0 |] (Mat.col a 1)

let test_mat_mul_nt_matches_transpose () =
  (* odd shapes exercise the partial trailing k-block *)
  let a = random_mat 17 13 19 and b = random_mat 23 11 19 in
  let c1 = Mat.mul_nt a b in
  let c2 = Mat.mul a (Mat.transpose b) in
  Alcotest.(check bool) "bit-identical" true (Mat.max_abs_diff c1 c2 = 0.0)

let test_mat_mul_nt_blocked_and_parallel () =
  (* k = 600 spans multiple 256-wide blocks, and the flop count crosses the
     parallel threshold; the result must still match bit-for-bit *)
  let a = random_mat 29 48 600 and b = random_mat 31 40 600 in
  let c1 = Mat.mul_nt a b in
  let c2 = Mat.mul a (Mat.transpose b) in
  Alcotest.(check bool) "bit-identical" true (Mat.max_abs_diff c1 c2 = 0.0)

let test_mat_mul_nt_with_zeros () =
  (* the zero-skip in both kernels must fire on the same entries *)
  let next = lcg_stream 41 in
  let a = Mat.init 9 33 (fun _ _ -> if next () < 0.0 then 0.0 else next ()) in
  let b = random_mat 43 7 33 in
  let c1 = Mat.mul_nt a b in
  let c2 = Mat.mul a (Mat.transpose b) in
  Alcotest.(check bool) "bit-identical" true (Mat.max_abs_diff c1 c2 = 0.0)

let test_mat_mul_nt_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Mat.mul_nt: inner dimension mismatch") (fun () ->
      ignore (Mat.mul_nt (random_mat 1 2 3) (random_mat 2 2 4)))

(* ---------- Cholesky ---------- *)

let test_cholesky_reconstructs () =
  let a = random_spd 21 30 in
  let l = Linalg.Cholesky.factor_lower a in
  let rec_a = Mat.mul l (Mat.transpose l) in
  Alcotest.(check bool) "LLt = A" true (Mat.max_abs_diff a rec_a < 1e-9)

let test_cholesky_lower_triangular () =
  let a = random_spd 22 10 in
  let l = Linalg.Cholesky.factor_lower a in
  let ok = ref true in
  for i = 0 to 9 do
    for j = i + 1 to 9 do
      if Mat.get l i j <> 0.0 then ok := false
    done
  done;
  Alcotest.(check bool) "strictly lower" true !ok

let test_cholesky_upper_matches () =
  let a = random_spd 23 8 in
  let u = Linalg.Cholesky.factor_upper a in
  let rec_a = Mat.mul (Mat.transpose u) u in
  Alcotest.(check bool) "UtU = A" true (Mat.max_abs_diff a rec_a < 1e-9)

let test_cholesky_indefinite_raises () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  (* eigenvalues 3, -1 *)
  Alcotest.(check bool) "raises" true
    (match Linalg.Cholesky.factor_lower a with
    | _ -> false
    | exception Linalg.Cholesky.Not_positive_definite _ -> true)

let test_cholesky_jitter_on_semidefinite () =
  (* rank-1 PSD matrix: ones *)
  let a = Mat.init 6 6 (fun _ _ -> 1.0) in
  let l, jitter = Linalg.Cholesky.factor_jittered a in
  Alcotest.(check bool) "jitter applied" true (jitter > 0.0);
  Alcotest.(check bool) "factor close" true
    (Mat.max_abs_diff a (Mat.mul l (Mat.transpose l)) < 1e-5)

let test_cholesky_jittered_rank_deficient () =
  (* rank-2 PSD 6x6: jitter must rescue the zero pivots of the null space *)
  let u = [| 1.0; 2.0; 0.0; -1.0; 0.5; 1.5 |] in
  let v = [| 0.0; 1.0; -1.0; 2.0; 1.0; 0.0 |] in
  let a = Mat.init 6 6 (fun i j -> (u.(i) *. u.(j)) +. (v.(i) *. v.(j))) in
  let l, jitter = Linalg.Cholesky.factor_jittered a in
  Alcotest.(check bool) "jitter applied" true (jitter > 0.0);
  Alcotest.(check bool) "factor close" true
    (Mat.max_abs_diff a (Mat.mul l (Mat.transpose l)) < 1e-4)

let test_cholesky_jittered_indefinite_raises () =
  (* eigenvalues 3, -1: no diagonal jitter in the escalation range fixes it *)
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  Alcotest.(check bool) "raises after escalation" true
    (match Linalg.Cholesky.factor_jittered a with
    | _ -> false
    | exception Linalg.Cholesky.Not_positive_definite _ -> true)

let test_cholesky_solve () =
  let a = random_spd 29 25 in
  let x0 = Array.init 25 (fun i -> sin (float_of_int i)) in
  let b = Mat.mul_vec a x0 in
  let l = Linalg.Cholesky.factor_lower a in
  let x = Linalg.Cholesky.solve l b in
  Alcotest.(check bool) "solve" true (Vec.dist_inf x x0 < 1e-8)

let test_cholesky_log_det () =
  (* diag(4, 9): det = 36 *)
  let a = Mat.of_arrays [| [| 4.0; 0.0 |]; [| 0.0; 9.0 |] |] in
  let l = Linalg.Cholesky.factor_lower a in
  check_close ~tol:1e-10 "log det" (log 36.0) (Linalg.Cholesky.log_det l)

(* ---------- Sym_eig ---------- *)

let test_eig_diagonal () =
  let a = Mat.of_arrays [| [| 3.0; 0.0 |]; [| 0.0; 1.0 |] |] in
  let vals, _ = Linalg.Sym_eig.eig a in
  check_close "l0" 3.0 vals.(0);
  check_close "l1" 1.0 vals.(1)

let test_eig_known_2x2 () =
  (* [[2,1],[1,2]] has eigenvalues 3 and 1 *)
  let a = Mat.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 2.0 |] |] in
  let vals, q = Linalg.Sym_eig.eig a in
  check_close "l0" 3.0 vals.(0);
  check_close "l1" 1.0 vals.(1);
  (* eigenvector for 3 is (1,1)/sqrt 2 up to sign *)
  let v0 = Mat.col q 0 in
  check_close ~tol:1e-10 "v0 components equal" (Float.abs v0.(0)) (Float.abs v0.(1))

let eig_residual a =
  let n = Mat.rows a in
  let vals, q = Linalg.Sym_eig.eig a in
  let err = ref 0.0 in
  for j = 0 to n - 1 do
    let v = Mat.col q j in
    let av = Mat.mul_vec a v in
    let lv = Vec.scale vals.(j) v in
    err := Float.max !err (Vec.dist_inf av lv)
  done;
  !err

let test_eig_residual_random () =
  Alcotest.(check bool) "residual small" true (eig_residual (random_sym 41 40) < 1e-10)

let test_eig_orthonormal_vectors () =
  let a = random_sym 43 25 in
  let _, q = Linalg.Sym_eig.eig a in
  let qtq = Mat.mul (Mat.transpose q) q in
  Alcotest.(check bool) "QtQ = I" true (Mat.max_abs_diff qtq (Mat.identity 25) < 1e-10)

let test_eig_trace_identity () =
  let a = random_sym 47 30 in
  let vals = Linalg.Sym_eig.eig_values a in
  check_close ~tol:1e-9 "sum eig = trace" (Mat.trace a) (Util.Arrayx.sum vals)

let test_eig_values_sorted () =
  let vals = Linalg.Sym_eig.eig_values (random_sym 53 30) in
  let sorted = ref true in
  for i = 1 to Array.length vals - 1 do
    if vals.(i) > vals.(i - 1) +. 1e-12 then sorted := false
  done;
  Alcotest.(check bool) "descending" true !sorted

let test_eig_matches_jacobi () =
  let a = random_sym 59 20 in
  let v1 = Linalg.Sym_eig.eig_values a in
  let v2, _ = Linalg.Jacobi.eig a in
  Array.iteri (fun i v -> check_close ~tol:1e-9 "ql vs jacobi" v2.(i) v) v1

let test_eig_degenerate_eigenvalues () =
  (* identity: all eigenvalues 1, vectors orthonormal *)
  let vals, q = Linalg.Sym_eig.eig (Mat.identity 8) in
  Array.iter (fun v -> check_close "unit eig" 1.0 v) vals;
  Alcotest.(check bool) "orthonormal" true
    (Mat.max_abs_diff (Mat.mul (Mat.transpose q) q) (Mat.identity 8) < 1e-12)

let test_eig_1x1 () =
  let vals, q = Linalg.Sym_eig.eig (Mat.of_arrays [| [| 7.0 |] |]) in
  check_close "eigenvalue" 7.0 vals.(0);
  check_close "vector" 1.0 (Float.abs (Mat.get q 0 0))

let test_eig_numerically_low_rank () =
  (* regression: Gram matrices of smooth kernels are numerically low-rank
     (trailing eigenvalues at rounding-noise level); the QL deflation test
     must use the global matrix norm or it spins forever on the noise block *)
  let pts =
    Array.init 20 (fun i ->
        let t = float_of_int i /. 19.0 in
        (t, Float.rem (t *. 7.3) 1.0))
  in
  let gauss (x1, y1) (x2, y2) =
    let d2 = ((x1 -. x2) ** 2.0) +. ((y1 -. y2) ** 2.0) in
    exp (-8.0 *. d2)
  in
  (* Kronecker-lift to a bigger, very ill-conditioned matrix *)
  let n = 20 in
  let g = Mat.init n n (fun i j -> gauss pts.(i) pts.(j)) in
  let big = Mat.init (n * n) (n * n) (fun i j ->
      Mat.get g (i / n) (j / n) *. Mat.get g (i mod n) (j mod n))
  in
  let vals = Linalg.Sym_eig.eig_values big in
  Alcotest.(check bool) "converged with positive top eigenvalue" true (vals.(0) > 0.0);
  (* trace identity still holds *)
  check_close ~tol:1e-6 "trace" (Mat.trace big) (Util.Arrayx.sum vals)

(* ---------- Jacobi ---------- *)

let test_jacobi_residual () =
  let a = random_sym 61 15 in
  let vals, q = Linalg.Jacobi.eig a in
  let err = ref 0.0 in
  for j = 0 to 14 do
    let v = Mat.col q j in
    let av = Mat.mul_vec a v in
    err := Float.max !err (Vec.dist_inf av (Vec.scale vals.(j) v))
  done;
  Alcotest.(check bool) "residual" true (!err < 1e-9)

(* ---------- Lanczos ---------- *)

let test_lanczos_matches_dense () =
  let a = random_spd 67 60 in
  let dense = Linalg.Sym_eig.eig_values a in
  let r = Linalg.Lanczos.top_k ~matvec:(fun x -> Mat.mul_vec a x) ~n:60 ~k:12 () in
  Array.iteri
    (fun i v -> check_close ~tol:1e-8 "lanczos vs dense" dense.(i) v)
    r.Linalg.Lanczos.eigenvalues

let test_lanczos_eigenvectors () =
  let a = random_spd 71 50 in
  let r = Linalg.Lanczos.top_k ~matvec:(fun x -> Mat.mul_vec a x) ~n:50 ~k:5 () in
  Array.iteri
    (fun i v ->
      let av = Mat.mul_vec a v in
      let lv = Vec.scale r.Linalg.Lanczos.eigenvalues.(i) v in
      Alcotest.(check bool) "residual" true (Vec.dist_inf av lv < 1e-7))
    r.Linalg.Lanczos.eigenvectors

let test_lanczos_orthonormal_ritz () =
  let a = random_spd 73 40 in
  let r = Linalg.Lanczos.top_k ~matvec:(fun x -> Mat.mul_vec a x) ~n:40 ~k:6 () in
  let vs = r.Linalg.Lanczos.eigenvectors in
  for i = 0 to 5 do
    check_close ~tol:1e-8 "unit" 1.0 (Vec.norm2 vs.(i));
    for j = i + 1 to 5 do
      check_close ~tol:1e-8 "orthogonal" 0.0 (Vec.dot vs.(i) vs.(j))
    done
  done

let test_lanczos_full_dimension () =
  (* k = n: must still work (degenerates to a full decomposition) *)
  let a = random_spd 79 12 in
  let dense = Linalg.Sym_eig.eig_values a in
  let r = Linalg.Lanczos.top_k ~matvec:(fun x -> Mat.mul_vec a x) ~n:12 ~k:12 () in
  Array.iteri
    (fun i v -> check_close ~tol:1e-7 "all pairs" dense.(i) v)
    r.Linalg.Lanczos.eigenvalues

let test_lanczos_invalid_k () =
  Alcotest.check_raises "k=0" (Invalid_argument "Lanczos.top_k: need 0 < k <= n")
    (fun () ->
      ignore (Linalg.Lanczos.top_k ~matvec:(fun x -> x) ~n:5 ~k:0 ()))

let test_lanczos_deterministic () =
  let a = random_spd 83 30 in
  let run () =
    (Linalg.Lanczos.top_k ~matvec:(fun x -> Mat.mul_vec a x) ~n:30 ~k:4 ())
      .Linalg.Lanczos.eigenvalues
  in
  let v1 = run () and v2 = run () in
  Array.iteri (fun i v -> check_close ~tol:0.0 "deterministic" v2.(i) v) v1

(* ---------- Sparse + CG ---------- *)

let laplacian_1d n =
  (* tridiagonal SPD: 2 on diagonal, -1 off (Dirichlet chain) *)
  let triplets = ref [] in
  for i = 0 to n - 1 do
    triplets := (i, i, 2.0) :: !triplets;
    if i + 1 < n then triplets := (i, i + 1, -1.0) :: (i + 1, i, -1.0) :: !triplets
  done;
  Linalg.Sparse.of_triplets ~n !triplets

let test_sparse_structure () =
  let a = laplacian_1d 5 in
  Alcotest.(check int) "dim" 5 (Linalg.Sparse.dim a);
  Alcotest.(check int) "nnz" 13 (Linalg.Sparse.nnz a);
  Alcotest.(check bool) "symmetric" true (Linalg.Sparse.is_symmetric a);
  Alcotest.(check (array (float 1e-12))) "diag" [| 2.0; 2.0; 2.0; 2.0; 2.0 |]
    (Linalg.Sparse.diagonal a)

let test_sparse_duplicate_triplets_sum () =
  let a = Linalg.Sparse.of_triplets ~n:2 [ (0, 0, 1.0); (0, 0, 2.5); (1, 1, 1.0) ] in
  check_close "summed" 3.5 (Mat.get (Linalg.Sparse.to_dense a) 0 0)

let test_sparse_matvec_matches_dense () =
  let a = laplacian_1d 30 in
  let dense = Linalg.Sparse.to_dense a in
  let x = Array.init 30 (fun i -> sin (float_of_int i)) in
  let y1 = Linalg.Sparse.mul_vec a x in
  let y2 = Mat.mul_vec dense x in
  Alcotest.(check bool) "same" true (Vec.dist_inf y1 y2 < 1e-13)

let test_sparse_bad_index () =
  Alcotest.(check bool) "raises" true
    (match Linalg.Sparse.of_triplets ~n:3 [ (0, 5, 1.0) ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_cg_solves_laplacian () =
  let n = 100 in
  let a = laplacian_1d n in
  let x0 = Array.init n (fun i -> cos (0.3 *. float_of_int i)) in
  let b = Linalg.Sparse.mul_vec a x0 in
  let x, stats = Linalg.Cg.solve a b in
  Alcotest.(check bool) "solution" true (Vec.dist_inf x x0 < 1e-7);
  Alcotest.(check bool) "iterations bounded" true (stats.Linalg.Cg.iterations <= 4 * n)

let test_cg_matches_cholesky () =
  let a = laplacian_1d 40 in
  let b = Array.init 40 (fun i -> float_of_int (i mod 7) -. 3.0) in
  let x_cg, _ = Linalg.Cg.solve a b in
  let l = Linalg.Cholesky.factor_lower (Linalg.Sparse.to_dense a) in
  let x_ch = Linalg.Cholesky.solve l b in
  Alcotest.(check bool) "agree" true (Vec.dist_inf x_cg x_ch < 1e-7)

let test_cg_warm_start () =
  let a = laplacian_1d 50 in
  let x_true = Array.init 50 (fun i -> float_of_int i /. 50.0) in
  let b = Linalg.Sparse.mul_vec a x_true in
  let _, cold = Linalg.Cg.solve a b in
  let near = Array.map (fun v -> v +. 1e-6) x_true in
  let _, warm = Linalg.Cg.solve ~x0:near a b in
  Alcotest.(check bool)
    (Printf.sprintf "warm %d <= cold %d iterations" warm.Linalg.Cg.iterations
       cold.Linalg.Cg.iterations)
    true
    (warm.Linalg.Cg.iterations <= cold.Linalg.Cg.iterations)

let test_cg_budget_exhaustion () =
  let a = laplacian_1d 50 in
  let b = Array.make 50 1.0 in
  Alcotest.(check bool) "raises" true
    (match Linalg.Cg.solve ~max_iter:2 a b with
    | _ -> false
    | exception Linalg.Cg.No_convergence _ -> true)

(* ---------- qcheck properties ---------- *)

let small_sym_gen =
  QCheck.Gen.(
    let* n = int_range 2 8 in
    let* seed = int_range 1 10000 in
    return (n, seed))

let arb_small_sym = QCheck.make small_sym_gen ~print:(fun (n, s) -> Printf.sprintf "(n=%d, seed=%d)" n s)

let prop_eig_trace =
  QCheck.Test.make ~name:"eigenvalue sum equals trace" ~count:50 arb_small_sym
    (fun (n, seed) ->
      let a = random_sym seed n in
      let vals = Linalg.Sym_eig.eig_values a in
      Float.abs (Util.Arrayx.sum vals -. Mat.trace a) < 1e-8)

let prop_cholesky_roundtrip =
  QCheck.Test.make ~name:"cholesky reconstructs SPD matrices" ~count:50 arb_small_sym
    (fun (n, seed) ->
      let a = random_spd seed n in
      let l = Linalg.Cholesky.factor_lower a in
      Mat.max_abs_diff a (Mat.mul l (Mat.transpose l)) < 1e-8)

let prop_eig_psd_nonnegative =
  QCheck.Test.make ~name:"SPD matrices have positive eigenvalues" ~count:50 arb_small_sym
    (fun (n, seed) ->
      let vals = Linalg.Sym_eig.eig_values (random_spd seed n) in
      Array.for_all (fun v -> v > 0.0) vals)

let () =
  Alcotest.run "linalg"
    [
      ( "vec",
        [
          Alcotest.test_case "dot" `Quick test_vec_dot;
          Alcotest.test_case "dot length mismatch" `Quick test_vec_dot_mismatch;
          Alcotest.test_case "norms" `Quick test_vec_norms;
          Alcotest.test_case "axpy" `Quick test_vec_axpy;
          Alcotest.test_case "normalize" `Quick test_vec_normalize;
          Alcotest.test_case "add/sub/scale" `Quick test_vec_add_sub_scale;
        ] );
      ( "mat",
        [
          Alcotest.test_case "get/set and bounds" `Quick test_mat_get_set;
          Alcotest.test_case "identity is neutral" `Quick test_mat_identity_mul;
          Alcotest.test_case "known 2x2 product" `Quick test_mat_mul_known;
          Alcotest.test_case "mul associativity" `Quick test_mat_mul_associative;
          Alcotest.test_case "transpose involution" `Quick test_mat_transpose_involution;
          Alcotest.test_case "mul_vec vs mul" `Quick test_mat_mul_vec_consistency;
          Alcotest.test_case "mul_vec_transposed" `Quick test_mat_mul_vec_transposed;
          Alcotest.test_case "trace" `Quick test_mat_trace;
          Alcotest.test_case "ragged of_arrays raises" `Quick test_mat_of_arrays_ragged;
          Alcotest.test_case "to/of arrays roundtrip" `Quick test_mat_rows_cols_roundtrip;
          Alcotest.test_case "is_symmetric" `Quick test_mat_is_symmetric;
          Alcotest.test_case "row and col" `Quick test_mat_row_col;
          Alcotest.test_case "mul_nt matches mul (transpose)" `Quick
            test_mat_mul_nt_matches_transpose;
          Alcotest.test_case "mul_nt blocked and parallel" `Quick
            test_mat_mul_nt_blocked_and_parallel;
          Alcotest.test_case "mul_nt zero-skip parity" `Quick test_mat_mul_nt_with_zeros;
          Alcotest.test_case "mul_nt mismatch raises" `Quick test_mat_mul_nt_mismatch;
        ] );
      ( "cholesky",
        [
          Alcotest.test_case "reconstructs A" `Quick test_cholesky_reconstructs;
          Alcotest.test_case "factor is lower triangular" `Quick test_cholesky_lower_triangular;
          Alcotest.test_case "upper factor" `Quick test_cholesky_upper_matches;
          Alcotest.test_case "indefinite raises" `Quick test_cholesky_indefinite_raises;
          Alcotest.test_case "jitter on semidefinite" `Quick test_cholesky_jitter_on_semidefinite;
          Alcotest.test_case "jitter on rank-deficient" `Quick
            test_cholesky_jittered_rank_deficient;
          Alcotest.test_case "jittered indefinite raises" `Quick
            test_cholesky_jittered_indefinite_raises;
          Alcotest.test_case "solve" `Quick test_cholesky_solve;
          Alcotest.test_case "log_det" `Quick test_cholesky_log_det;
        ] );
      ( "sym_eig",
        [
          Alcotest.test_case "diagonal matrix" `Quick test_eig_diagonal;
          Alcotest.test_case "known 2x2" `Quick test_eig_known_2x2;
          Alcotest.test_case "residual on random sym" `Quick test_eig_residual_random;
          Alcotest.test_case "orthonormal eigenvectors" `Quick test_eig_orthonormal_vectors;
          Alcotest.test_case "trace identity" `Quick test_eig_trace_identity;
          Alcotest.test_case "values sorted descending" `Quick test_eig_values_sorted;
          Alcotest.test_case "matches jacobi" `Quick test_eig_matches_jacobi;
          Alcotest.test_case "degenerate eigenvalues" `Quick test_eig_degenerate_eigenvalues;
          Alcotest.test_case "1x1" `Quick test_eig_1x1;
          Alcotest.test_case "numerically low-rank (regression)" `Quick test_eig_numerically_low_rank;
        ] );
      ("jacobi", [ Alcotest.test_case "residual" `Quick test_jacobi_residual ]);
      ( "lanczos",
        [
          Alcotest.test_case "matches dense top-k" `Quick test_lanczos_matches_dense;
          Alcotest.test_case "eigenvector residuals" `Quick test_lanczos_eigenvectors;
          Alcotest.test_case "orthonormal ritz vectors" `Quick test_lanczos_orthonormal_ritz;
          Alcotest.test_case "k = n" `Quick test_lanczos_full_dimension;
          Alcotest.test_case "invalid k raises" `Quick test_lanczos_invalid_k;
          Alcotest.test_case "deterministic" `Quick test_lanczos_deterministic;
        ] );
      ( "sparse_cg",
        [
          Alcotest.test_case "sparse structure" `Quick test_sparse_structure;
          Alcotest.test_case "duplicate triplets sum" `Quick test_sparse_duplicate_triplets_sum;
          Alcotest.test_case "matvec matches dense" `Quick test_sparse_matvec_matches_dense;
          Alcotest.test_case "bad index rejected" `Quick test_sparse_bad_index;
          Alcotest.test_case "cg solves laplacian" `Quick test_cg_solves_laplacian;
          Alcotest.test_case "cg matches cholesky" `Quick test_cg_matches_cholesky;
          Alcotest.test_case "cg warm start" `Quick test_cg_warm_start;
          Alcotest.test_case "cg budget exhaustion" `Quick test_cg_budget_exhaustion;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_eig_trace; prop_cholesky_roundtrip; prop_eig_psd_nonnegative ]
      );
    ]
