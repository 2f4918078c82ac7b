(** Hierarchical (H-matrix) form of the symmetric Galerkin operator:
    O(n log n) storage and matvec instead of the flat pair sweep's O(n²).
    Built explicitly ({!Operator.hmatrix_galerkin}) and solved through
    {!Galerkin.solve_with_operator}; no {!Galerkin.solve} path selects it.

    A {!Cluster} tree over the triangle centroids partitions the index
    square into {e admissible} far-field blocks — compressed to low rank
    by {!Aca} with relative tolerance [tol] — and leaf×leaf dense
    near-field blocks evaluated exactly. The eigenvalue perturbation of
    the compressed operator is bounded by its 2-norm error, which the
    per-block ACA stopping rule keeps near [tol·‖C‖_F].

    Deterministic end to end: the partition is a fixed depth-first
    traversal, the (parallel) build writes one slot per block, and
    {!apply} walks blocks sequentially in partition order — results are
    bit-identical for every [jobs] count. *)

type params = {
  tol : float;  (** relative ACA tolerance per far-field block *)
  eta : float;  (** admissibility: [min(diam) ≤ eta·dist] *)
  leaf_size : int;  (** cluster-tree leaf size (near-block edge bound) *)
  max_rank : int;  (** ACA rank cap — exceeding it fails the build *)
}

val default_params : params
(** [{tol = 1e-6; eta = 2.0; leaf_size = 48; max_rank = 96}]. *)

type stats = {
  tree_nodes : int;
  tree_depth : int;
  near_blocks : int;
  far_blocks : int;
  near_entries : int;  (** dense entries stored (= near-field evaluations) *)
  rank_sum : int;  (** Σ ACA ranks over far blocks *)
  entry_evals : int;  (** total entry evaluations spent building *)
}

type t
(** A built H-matrix: cluster permutation, block partition in a fixed
    order, and the build {!stats}. *)

val build :
  ?params:params ->
  ?jobs:int ->
  entry:(int -> int -> float) ->
  Geometry.Point.t array ->
  (t, string) result
(** [build ~entry points] compresses the symmetric operator
    [entry i k] (original, un-permuted indices) using the geometry of
    [points] (one per index). [Error detail] when ACA stalls at
    [max_rank] on some far block; the caller decides what to do without
    the compressed operator.
    Adds bulk totals to the {!Util.Trace} counters [kernel_evals],
    [nearfield_evals], [aca_rank_sum], [htree_nodes] and
    [hmatrix_near_blocks]/[hmatrix_far_blocks]; all totals and the
    result are independent of [jobs] ({!Util.Pool.with_jobs} semantics). *)

val apply : t -> float array -> float array
(** The compressed matvec. O(n log n); sequential, so safe to call
    concurrently from several domains. Raises [Invalid_argument] on a
    length mismatch. *)

val dim : t -> int
val stats : t -> stats

val words : t -> int
(** Stored floats across all blocks — the O(n log n) memory footprint,
    versus [n²] for the dense matrix. *)
