module Mesh = Geometry.Mesh
module Kernel = Kernels.Kernel

type t = Linalg.Operator.t =
  | Dense of Linalg.Mat.t
  | Matrix_free of { apply : float array -> float array; dim : int }

type quadrature = Centroid | Midedge

let dim = Linalg.Operator.dim
let apply = Linalg.Operator.apply

(* K̃_ik: quadrature approximation of (1/(a_i a_k)) ∫∫ K — i.e. the mean of K
   over the element pair. Centroid rule: K(c_i, c_k). Mid-edge rule: mean of
   the 3x3 mid-edge evaluations (each triangle's 3-point rule has equal
   weights a/3). *)
let mean_kernel_value quadrature mesh kernel =
  match quadrature with
  | Centroid ->
      let centroids = mesh.Mesh.centroids in
      fun i k -> Kernel.eval kernel centroids.(i) centroids.(k)
  | Midedge ->
      let midpoints =
        Array.init (Mesh.size mesh) (fun i ->
            Geometry.Triangle.edge_midpoints (Mesh.triangle mesh i))
      in
      fun i k ->
        let mi = midpoints.(i) and mk = midpoints.(k) in
        let acc = ref 0.0 in
        for p = 0 to 2 do
          for q = 0 to 2 do
            acc := !acc +. Kernel.eval kernel mi.(p) mk.(q)
          done
        done;
        !acc /. 9.0

let domain_diameter mesh =
  let d = mesh.Mesh.domain in
  Float.hypot (Geometry.Rect.width d) (Geometry.Rect.height d)

let check_finite ?diag ~stage out =
  match Linalg.Vec.find_non_finite out with
  | None -> ()
  | Some i ->
      Util.Diag.fail ?sink:diag `Non_finite ~stage
        (Printf.sprintf "apply produced a non-finite entry at row %d" i)

(* The apply is tiled over a FIXED number of row panels — fixed so the work
   decomposition (and hence the floating-point result) depends only on [n],
   never on how many domains serve the panels. Each panel owns the pairs
   (i, k >= i) for its rows and accumulates both sides of the symmetric
   contribution into a private length-n vector; the panel vectors are then
   combined in panel order. *)
let panel_target = 128

(* column-block width of the pair loops: keeps the active slices of x, y and
   the coordinate arrays L1-resident while a row panel streams over k *)
let col_block = 256

let make_apply ~n ?jobs ?diag ?(evals_per_apply = 0) ~process_row () =
  let panels = max 1 (min panel_target n) in
  let psize = (n + panels - 1) / panels in
  (* re-entrancy: scratch panel sets are pooled and checked out per call,
     never shared between in-flight matvecs — concurrent applies of one
     operator (ssta_serve worker domains hitting a cached model) each get
     private panels and produce the same bits as sequential applies. The
     free list caps steady-state allocation at one O(panels·n) set per
     concurrently running matvec instead of one per matvec (Lanczos calls
     apply hundreds of times). *)
  let free : float array array list ref = ref [] in
  let free_lock = Mutex.create () in
  let acquire () =
    let pooled =
      Mutex.protect free_lock (fun () ->
          match !free with
          | s :: tl ->
              free := tl;
              Some s
          | [] -> None)
    in
    match pooled with
    | Some s -> s
    | None -> Array.init panels (fun _ -> Array.make n 0.0)
  in
  let release s = Mutex.protect free_lock (fun () -> free := s :: !free) in
  fun x ->
    if Array.length x <> n then
      invalid_arg "Kle.Operator.apply: vector length mismatch";
    (* exact-evaluation applies do the full pair sweep every matvec; table
       applies only interpolate (0) — bulk add keeps totals jobs-independent *)
    Util.Trace.add Util.Trace.kernel_evals evals_per_apply;
    let scratch = acquire () in
    Fun.protect ~finally:(fun () -> release scratch) @@ fun () ->
    Util.Pool.with_jobs ?jobs (fun pool ->
        Util.Pool.parallel_for pool ~chunk:1 ~n:panels (fun plo phi ->
            for p = plo to phi - 1 do
              let y = scratch.(p) in
              Array.fill y 0 n 0.0;
              let ihi = min n ((p + 1) * psize) in
              for i = p * psize to ihi - 1 do
                process_row y x i
              done
            done));
    let out = Array.make n 0.0 in
    for p = 0 to panels - 1 do
      let yp = scratch.(p) in
      for i = 0 to n - 1 do
        Array.unsafe_set out i (Array.unsafe_get out i +. Array.unsafe_get yp i)
      done
    done;
    check_finite ?diag ~stage:"kle.operator.apply" out;
    out

(* row processor over an arbitrary pair-value closure (exact evaluation,
   mid-edge rules, non-isotropic kernels) *)
let generic_row ~n ~s ~pair y x i =
  let si = Array.unsafe_get s i in
  let vii = pair i i *. si *. si in
  Array.unsafe_set y i (Array.unsafe_get y i +. (vii *. Array.unsafe_get x i));
  let xi = Array.unsafe_get x i in
  let k0 = ref (i + 1) in
  while !k0 < n do
    let k1 = min n (!k0 + col_block) in
    let acc = ref 0.0 in
    for k = !k0 to k1 - 1 do
      let v = pair i k *. si *. Array.unsafe_get s k in
      acc := !acc +. (v *. Array.unsafe_get x k);
      Array.unsafe_set y k (Array.unsafe_get y k +. (v *. xi))
    done;
    Array.unsafe_set y i (Array.unsafe_get y i +. !acc);
    k0 := k1
  done

(* the hot path: centroid rule on a tabulated radial profile — one distance,
   one table interpolation and a handful of flops per unordered pair *)
let table_row ~n ~s ~cx ~cy ~tbl y x i =
  let si = Array.unsafe_get s i in
  let xi_c = Array.unsafe_get cx i and yi_c = Array.unsafe_get cy i in
  let vii = Kernel.profile_eval tbl 0.0 *. si *. si in
  Array.unsafe_set y i (Array.unsafe_get y i +. (vii *. Array.unsafe_get x i));
  let xi = Array.unsafe_get x i in
  let k0 = ref (i + 1) in
  while !k0 < n do
    let k1 = min n (!k0 + col_block) in
    let acc = ref 0.0 in
    for k = !k0 to k1 - 1 do
      let dx = xi_c -. Array.unsafe_get cx k in
      let dy = yi_c -. Array.unsafe_get cy k in
      let v =
        Kernel.profile_eval tbl (sqrt ((dx *. dx) +. (dy *. dy)))
        *. si *. Array.unsafe_get s k
      in
      acc := !acc +. (v *. Array.unsafe_get x k);
      Array.unsafe_set y k (Array.unsafe_get y k +. (v *. xi))
    done;
    Array.unsafe_set y i (Array.unsafe_get y i +. !acc);
    k0 := k1
  done

(* the mid-edge K̃_ik through a radial table: 9 midpoint distances per pair *)
let midedge_table_pair ~n mesh tbl =
  let midpoints =
    Array.init n (fun i ->
        Geometry.Triangle.edge_midpoints (Mesh.triangle mesh i))
  in
  let mx =
    Array.init (3 * n) (fun q -> midpoints.(q / 3).(q mod 3).Geometry.Point.x)
  in
  let my =
    Array.init (3 * n) (fun q -> midpoints.(q / 3).(q mod 3).Geometry.Point.y)
  in
  fun i k ->
    let acc = ref 0.0 in
    for p = 0 to 2 do
      let xp = Array.unsafe_get mx ((3 * i) + p) in
      let yp = Array.unsafe_get my ((3 * i) + p) in
      for q = 0 to 2 do
        let dx = xp -. Array.unsafe_get mx ((3 * k) + q) in
        let dy = yp -. Array.unsafe_get my ((3 * k) + q) in
        acc := !acc +. Kernel.profile_eval tbl (sqrt ((dx *. dx) +. (dy *. dy)))
      done
    done;
    !acc /. 9.0

let centroid_coords mesh =
  let c = mesh.Mesh.centroids in
  (Array.map (fun p -> p.Geometry.Point.x) c, Array.map (fun p -> p.Geometry.Point.y) c)

(* flat O(n²)-per-matvec apply: through the radial table when it
   qualifies, exact evaluation otherwise *)
let galerkin ?(quadrature = Centroid) ?diag ?jobs mesh kernel =
  let n = Mesh.size mesh in
  let s = Array.map sqrt mesh.Mesh.areas in
  let table = Kernel.radial_profile ?diag kernel ~vmax:(domain_diameter mesh) in
  let process_row =
    match (quadrature, table) with
    | Centroid, Some tbl ->
        let cx, cy = centroid_coords mesh in
        table_row ~n ~s ~cx ~cy ~tbl
    | Midedge, Some tbl -> generic_row ~n ~s ~pair:(midedge_table_pair ~n mesh tbl)
    | (Centroid | Midedge), None ->
        generic_row ~n ~s ~pair:(mean_kernel_value quadrature mesh kernel)
  in
  let evals_per_apply =
    match table with
    | Some _ -> 0
    | None ->
        n * (n + 1) / 2 * (match quadrature with Centroid -> 1 | Midedge -> 9)
  in
  Matrix_free
    { apply = make_apply ~n ?jobs ?diag ~evals_per_apply ~process_row (); dim = n }

let hmatrix_galerkin ?(quadrature = Centroid) ?hier ?diag ?jobs mesh kernel =
  let n = Mesh.size mesh in
  let s = Array.map sqrt mesh.Mesh.areas in
  let table = Kernel.radial_profile ?diag kernel ~vmax:(domain_diameter mesh) in
  let pair =
    match (quadrature, table) with
    | Centroid, Some tbl ->
        let cx, cy = centroid_coords mesh in
        fun i k ->
          let dx = Array.unsafe_get cx i -. Array.unsafe_get cx k in
          let dy = Array.unsafe_get cy i -. Array.unsafe_get cy k in
          Kernel.profile_eval tbl (sqrt ((dx *. dx) +. (dy *. dy)))
    | Midedge, Some tbl -> midedge_table_pair ~n mesh tbl
    | (Centroid | Midedge), None -> mean_kernel_value quadrature mesh kernel
  in
  let entry i k = pair i k *. Array.unsafe_get s i *. Array.unsafe_get s k in
  Hmatrix.build ?params:hier ?jobs ~entry mesh.Mesh.centroids

let of_hmatrix ?diag h =
  let n = Hmatrix.dim h in
  Matrix_free
    {
      apply =
        (fun x ->
          let y = Hmatrix.apply h x in
          check_finite ?diag ~stage:"kle.operator.apply" y;
          y);
      dim = n;
    }
