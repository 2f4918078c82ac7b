(** Dense symmetric eigendecomposition.

    Householder tridiagonalization followed by the implicit-shift QL
    iteration (the classic EISPACK tred2/tql2 pair). This is the "standard
    eigenvalue problem" solver of the paper's eq. (15), and also powers the
    grid-model PCA baseline of eq. (1). *)

exception No_convergence of int
(** Raised with the offending eigenvalue index when QL fails to converge in
    50 iterations (does not happen for symmetric input). *)

val eig : Mat.t -> float array * Mat.t
(** [eig a] is [(lambda, q)] with eigenvalues in {e descending} order and the
    corresponding orthonormal eigenvectors as {e columns} of [q], so that
    [a * q = q * diag lambda]. Only the symmetric part of [a] is used; raises
    [Invalid_argument] when [a] is not square. *)

val eig_values : Mat.t -> float array
(** Eigenvalues only (descending), skipping eigenvector accumulation. *)

val tridiag_ql : float array -> float array -> float array
(** [tridiag_ql d e] is the ascending eigenvalue array of the symmetric
    tridiagonal matrix with diagonal [d] and sub-diagonal [e] ([e.(0)] is
    unused padding to keep EISPACK indexing). Both arrays are consumed.
    Exposed for the Lanczos solver. *)

val tridiag_ql_vectors : float array -> float array -> Mat.t -> float array
(** Like {!tridiag_ql} but also accumulates the QL rotations into the
    {e transposed} eigenvector matrix [zt] (initialized by the caller,
    [n] rows, any number of columns), and returns the eigenvalues in QL
    order (unsorted). Started from the identity, row [j] of [zt] ends as
    the eigenvector of eigenvalue [j]. Started from an [n × 1] column
    holding the unit vector [e_{n-1}], entry [j] ends as the {e last}
    component of that eigenvector — the same bits as the last column of
    the identity-started call, at O(n²) instead of O(n³). The eigenvalue
    recurrences never read [zt], so every start gives the same eigenvalue
    bits. Raises [Invalid_argument] when [zt] does not have [n] rows, and
    {!No_convergence} when QL fails (non-finite input). *)
