(** Lanczos iteration with full reorthogonalization for the leading
    eigenpairs of a large symmetric (positive semi-definite) operator.

    This plays the role of MATLAB's [eigs] in the paper's experiments: the
    Galerkin eigenproblem only needs its first ~200 eigenpairs out of ~1546,
    and a Krylov method gets them at a fraction of the dense-solver cost. *)

exception No_convergence of { converged : int; wanted : int }
(** Raised when fewer than [wanted] Ritz pairs reach the residual tolerance
    within the iteration budget. *)

type result = {
  eigenvalues : float array; (* descending, length k *)
  eigenvectors : float array array; (* eigenvectors as rows, k of length n *)
  iterations : int; (* Krylov dimension actually built *)
  residuals : float array; (* residual bound per returned pair *)
}

val top_k :
  matvec:(float array -> float array) ->
  n:int ->
  k:int ->
  ?tol:float ->
  ?max_dim:int ->
  ?seed:int ->
  unit ->
  result
(** [top_k ~matvec ~n ~k ()] computes the [k] algebraically largest
    eigenpairs of the symmetric operator [matvec] on dimension [n].

    [tol] is the relative residual tolerance (default 1e-9, relative to the
    largest Ritz value). [max_dim] bounds the Krylov dimension (default
    [min n (4k + 80)]). [seed] fixes the deterministic pseudo-random start
    vector.

    Schedule: the basis grows to dimension [k + s], then by [s] more
    vectors at a time, with [s = max 16 (k / 10)]. After each growth a
    convergence check runs QL on the tridiagonal with a one-column
    accumulator (the last row of its eigenvector matrix, O(dim²)), and the
    solve stops at the first check where every wanted pair's residual
    bound [|β·s_last,i|] is within [tol]. Only then are the full
    eigenvector matrix and the Ritz vectors built, once. At the budget,
    bounds within 1e-5 are accepted, and looser ones raise
    {!No_convergence}.

    Raises [Invalid_argument] when [k > n] or [k <= 0], or when [matvec]
    returns a non-finite entry (the message names the Lanczos step), and
    {!No_convergence} when the tridiagonal QL fails. *)

val top_k_op :
  op:Operator.t ->
  k:int ->
  ?tol:float ->
  ?max_dim:int ->
  ?seed:int ->
  unit ->
  result
(** {!top_k} over an {!Operator.t}: the matvec and dimension are taken from
    the operator, so assembled and matrix-free consumers share one entry
    point. *)
