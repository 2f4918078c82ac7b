(** The Galerkin correlation operator [C = Φ^{1/2} K̃ Φ^{1/2}] as a
    {!Linalg.Operator.t} — in particular {e matrix-free}: the Krylov
    eigensolver only needs [C·x], and every entry
    [C_ik = K̃(c_i, c_k) √(a_i a_k)] is recomputable on the fly, so the
    O(n²) assembly (memory {e and} kernel evaluations) can be skipped
    entirely.

    Two operators:
    - {!galerkin}, the flat apply {!Galerkin.solve} runs above 600
      triangles: each matvec sweeps all n²/2 pairs, evaluating the
      isotropic kernel through a precomputed radial profile table
      ({!Kernels.Kernel.radial_profile}) — one distance and one linear
      interpolation per unordered pair instead of [exp]/Bessel/[Γ] calls.
      Kernels the table rejects (anisotropic, fault-wrapped, or failing
      the table's measured-error guard) get exact evaluations instead.
    - {!hmatrix_galerkin} + {!of_hmatrix}, built explicitly and handed to
      {!Galerkin.solve_with_operator}: the operator compressed once into
      an H-matrix ({!Hmatrix}: cluster tree + ACA low-rank far field +
      dense near field) and applied in O(n log n) — sub-quadratic
      matvecs at the price of a controlled relative error [hier.tol].

    The flat apply is parallelized over {!Util.Pool} with a
    pool-size-independent panel decomposition, and the hierarchical build
    writes per-block slots: results are bit-identical for every [jobs],
    matching the repo-wide determinism contract.

    All returned closures are safe to call concurrently from several
    domains: the flat apply checks scratch panels out of a pool per
    call, and the hierarchical apply holds no mutable state. *)

type t = Linalg.Operator.t =
  | Dense of Linalg.Mat.t
  | Matrix_free of { apply : float array -> float array; dim : int }

type quadrature =
  | Centroid  (** paper eq. (21): one-point rule, degree-1 exact *)
  | Midedge  (** three mid-edge points per triangle, degree-2 exact *)

val mean_kernel_value :
  quadrature -> Geometry.Mesh.t -> Kernels.Kernel.t -> int -> int -> float
(** [mean_kernel_value q mesh kernel i k] is K̃_ik, the quadrature
    approximation of the mean of [K] over element pair [(i, k)] — the shared
    entry rule behind both {!Galerkin.assemble} and the matrix-free apply. *)

val dim : t -> int
val apply : t -> float array -> float array

val galerkin :
  ?quadrature:quadrature ->
  ?diag:Util.Diag.sink ->
  ?jobs:int ->
  Geometry.Mesh.t ->
  Kernels.Kernel.t ->
  t
(** [galerkin mesh kernel] is the flat matrix-free Galerkin operator
    above. {!Kernels.Kernel.radial_profile} records [`Degraded_fallback] /
    [`Non_finite] warnings on [diag] when it rejects the table.

    [jobs] has {!Util.Pool.with_jobs} semantics, resolved per matvec. A
    non-finite entry in an apply result raises [Util.Diag.Failure] with
    [`Non_finite] (recorded on [diag]). *)

val hmatrix_galerkin :
  ?quadrature:quadrature ->
  ?hier:Hmatrix.params ->
  ?diag:Util.Diag.sink ->
  ?jobs:int ->
  Geometry.Mesh.t ->
  Kernels.Kernel.t ->
  (Hmatrix.t, string) result
(** Compress the Galerkin operator's entry function into an
    {!Hmatrix.t} ([hier] defaults to {!Hmatrix.default_params}); the
    radial table backs the entry function when it qualifies. [Error
    detail] when ACA stalls at [hier.max_rank]; nothing is recorded on
    [diag] for that — the caller decides what to do without the
    compressed operator. [jobs] is resolved once, at build time. *)

val of_hmatrix : ?diag:Util.Diag.sink -> Hmatrix.t -> t
(** Wrap built hierarchical factors as an operator; the apply checks
    outputs for finiteness like the flat one. *)
