exception No_convergence of { converged : int; wanted : int }

type result = {
  eigenvalues : float array;
  eigenvectors : float array array;
  iterations : int;
  residuals : float array;
}

(* deterministic start vector from a splitmix64 stream *)
let start_vector n seed =
  let state = ref (Int64.of_int (seed * 2654435761 + 1)) in
  let next () =
    state := Int64.add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0
  in
  let v = Array.init n (fun _ -> next () -. 0.5) in
  Vec.normalize v

(* remove components of [v] along the first [m] rows of [basis], twice
   ("twice is enough" full reorthogonalization) *)
let reorthogonalize basis m v =
  for _pass = 1 to 2 do
    for i = 0 to m - 1 do
      let q = basis.(i) in
      let c = Vec.dot q v in
      if c <> 0.0 then Vec.axpy (-.c) q v
    done
  done

let top_k ~matvec ~n ~k ?(tol = 1e-9) ?max_dim ?(seed = 7) () =
  if k <= 0 || k > n then invalid_arg "Lanczos.top_k: need 0 < k <= n";
  Util.Trace.with_span
    ~attrs:[ ("n", string_of_int n); ("k", string_of_int k) ]
    "lanczos.top_k"
  @@ fun () ->
  (* a NaN/inf in the operator's output would poison the whole basis and
     surface much later as a QL failure: name the step instead *)
  let matvec step v =
    Util.Trace.incr Util.Trace.matvecs;
    let w = matvec v in
    (match Vec.find_non_finite w with
    | Some i ->
        invalid_arg
          (Printf.sprintf
             "Lanczos.top_k: matvec returned a non-finite entry %g at index %d \
              in step %d"
             w.(i) i step)
    | None -> ());
    w
  in
  let max_dim =
    match max_dim with Some m -> min m n | None -> min n ((4 * k) + 80)
  in
  let basis = Array.make max_dim [||] in
  let alpha = Array.make max_dim 0.0 in
  let beta = Array.make max_dim 0.0 in
  (* beta.(j) couples basis.(j-1) and basis.(j) *)
  basis.(0) <- start_vector n seed;
  let m = ref 0 in
  (* norm of the residual from the latest extension step; beta.(dim) is only
     stored while there is room for another basis vector, so this keeps the
     residual bound honest when the basis has grown to the full budget *)
  let last_beta = ref 0.0 in
  (* extend the Krylov basis to dimension [target] *)
  let extend target =
    while !m < target do
      let j = !m in
      let q = basis.(j) in
      let w = matvec j q in
      if j > 0 then Vec.axpy (-.beta.(j)) basis.(j - 1) w;
      alpha.(j) <- Vec.dot q w;
      Vec.axpy (-.alpha.(j)) q w;
      reorthogonalize basis (j + 1) w;
      let b = Vec.norm2 w in
      m := j + 1;
      last_beta := b;
      if !m < max_dim then begin
        if b < 1e-13 then begin
          (* invariant subspace found: restart with a fresh orthogonal vector *)
          let v = start_vector n (seed + !m + 101) in
          reorthogonalize basis !m v;
          let nv = Vec.norm2 v in
          if nv < 1e-13 then m := max_dim (* whole space spanned *)
          else begin
            beta.(!m) <- 0.0;
            basis.(!m) <- Vec.scale (1.0 /. nv) v
          end
        end
        else begin
          beta.(!m) <- b;
          basis.(!m) <- Vec.scale (1.0 /. b) w
        end
      end
    done
  in
  (* QL on the tridiagonal T of the current basis, accumulating into [zt]
     (see {!Sym_eig.tridiag_ql_vectors}); returns the Ritz values in
     descending order and their permutation into QL order *)
  let ql zt =
    let dim = !m in
    let d = Array.sub alpha 0 dim in
    let e = Array.make dim 0.0 in
    Array.blit beta 1 e 1 (dim - 1);
    match Sym_eig.tridiag_ql_vectors d e zt with
    | d -> Util.Arrayx.sort_desc_with_perm d
    | exception Sym_eig.No_convergence _ ->
        raise (No_convergence { converged = 0; wanted = k })
  in
  (* convergence check: QL on a dim×1 accumulator started at e_dim gives
     the Ritz values and the last entry of every eigenvector of T — all
     that the classic residual bound |beta_dim * s_{dim,i}| needs — at
     O(dim²), against O(dim³) for the full eigenvector matrix *)
  let check () =
    let dim = !m in
    let last = Mat.create dim 1 in
    Mat.set last (dim - 1) 0 1.0;
    let sorted, perm = ql last in
    let beta_last = if dim < max_dim then beta.(dim) else !last_beta in
    let residuals =
      Array.init (min k dim) (fun i ->
          Float.abs (beta_last *. Mat.get last perm.(i) 0))
    in
    (sorted, residuals)
  in
  (* the one full pass after acceptance: eigenvectors of T (the same values
     and permutation as the check, bit for bit — the QL recurrences never
     read the accumulator), then Ritz vectors y_i = Q * s_i *)
  let vectors kk =
    let dim = !m in
    let zt = Mat.identity dim in
    let sorted, perm = ql zt in
    let vectors =
      Array.init kk (fun i ->
          let y = Array.make n 0.0 in
          for j = 0 to dim - 1 do
            let s = Mat.unsafe_get zt perm.(i) j in
            if s <> 0.0 then Vec.axpy s basis.(j) y
          done;
          y)
    in
    (Array.sub sorted 0 kk, vectors)
  in
  (* check from dimension k + step, then every step: a fixed fraction of k,
     so the check count stays small and the overshoot past convergence
     stays under step matvecs *)
  let step = max 16 (k / 10) in
  let finished = ref None in
  while !finished = None do
    let target = min max_dim (max (k + step) (!m + step)) in
    Util.Trace.with_span "lanczos.extend" (fun () -> extend target);
    let sorted, residuals = Util.Trace.with_span "lanczos.ritz" check in
    let dim = !m in
    let scale_ref = Float.max (Float.abs sorted.(0)) 1e-300 in
    let kk = Array.length residuals in
    let within bound = Array.for_all (fun r -> r <= bound *. scale_ref) residuals in
    let all_ok = kk = k && within tol in
    if all_ok || dim >= max_dim then begin
      if not all_ok then begin
        let converged = ref 0 in
        (try
           Array.iter
             (fun r -> if r <= tol *. scale_ref then incr converged else raise Exit)
             residuals
         with Exit -> ());
        (* accept looser convergence at full budget only if reasonably tight *)
        if not (kk = k && within 1e-5) then
          raise (No_convergence { converged = !converged; wanted = k })
      end;
      let eigenvalues, eigenvectors =
        Util.Trace.with_span "lanczos.vectors" (fun () -> vectors kk)
      in
      finished := Some { eigenvalues; eigenvectors; iterations = dim; residuals }
    end
  done;
  match !finished with
  | Some r ->
      Util.Trace.add Util.Trace.lanczos_iterations r.iterations;
      r
  | None -> assert false

let top_k_op ~op ~k ?tol ?max_dim ?seed () =
  top_k ~matvec:(Operator.apply op) ~n:(Operator.dim op) ~k ?tol ?max_dim ?seed
    ()
