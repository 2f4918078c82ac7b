module Mat = Linalg.Mat
module Lowrank = Linalg.Lowrank

(* Hierarchical (H-matrix) representation of the symmetric Galerkin
   operator: a cluster tree over triangle centroids partitions the index
   square into admissible far-field blocks — compressed to low rank by
   ACA — and small dense near-field blocks. Storage and matvec cost are
   O(n log n) instead of the O(n²) of the flat pair sweep.

   Determinism: the partition order is a fixed depth-first traversal,
   blocks are factorized into per-block slots (so the build parallelizes
   over Util.Pool without affecting results), and [apply] walks the
   blocks sequentially in partition order — results are bit-identical for
   every [jobs] count, matching the repo-wide contract. *)

type params = {
  tol : float;
  eta : float;
  leaf_size : int;
  max_rank : int;
}

let default_params = { tol = 1e-6; eta = 2.0; leaf_size = Cluster.default_leaf_size; max_rank = 96 }

type block =
  | Near of { rlo : int; rhi : int; clo : int; chi : int; data : Mat.t }
  | Far of { rlo : int; rhi : int; clo : int; chi : int; u : Mat.t; v : Mat.t }

type stats = {
  tree_nodes : int;
  tree_depth : int;
  near_blocks : int;
  far_blocks : int;
  near_entries : int;
  rank_sum : int;
  entry_evals : int;
}

type t = {
  n : int;
  perm : int array;
  blocks : block array;
  stats : stats;
}

(* depth-first admissible partition of the index square: (a, b) pairs of
   tree nodes, split until admissible or both leaves. The non-leaf node
   (or both) is split, so near blocks are leaf×leaf — at most
   leaf_size² dense entries each. *)
let partition tree ~eta =
  let pairs = ref [] in
  let rec visit ai bi =
    let a = Cluster.node tree ai and b = Cluster.node tree bi in
    if Cluster.admissible ~eta a b then pairs := (ai, bi, true) :: !pairs
    else if Cluster.is_leaf a && Cluster.is_leaf b then
      pairs := (ai, bi, false) :: !pairs
    else if Cluster.is_leaf b || ((not (Cluster.is_leaf a)) && Cluster.size a >= Cluster.size b)
    then begin
      visit a.Cluster.left bi;
      visit a.Cluster.right bi
    end
    else begin
      visit ai b.Cluster.left;
      visit ai b.Cluster.right
    end
  in
  visit (Cluster.root_index tree) (Cluster.root_index tree);
  Array.of_list (List.rev !pairs)

exception Stalled of { rlo : int; clo : int; m : int; n : int }

let build ?(params = default_params) ?jobs ~entry points =
  let { tol; eta; leaf_size; max_rank } = params in
  Util.Trace.with_span
    ~attrs:
      [
        ("n", string_of_int (Array.length points));
        ("tol", Printf.sprintf "%g" tol);
        ("eta", Printf.sprintf "%g" eta);
      ]
    "kle.hmatrix.build"
  @@ fun () ->
  let tree = Cluster.build ~leaf_size points in
  let perm = Cluster.perm tree in
  let pairs = partition tree ~eta in
  let n_pairs = Array.length pairs in
  (* per-pair result slots: the parallel build writes each slot exactly
     once, so the assembled block list is independent of the pool size *)
  let slots = Array.make n_pairs None in
  let build_pair p =
    let ai, bi, far = pairs.(p) in
    let a = Cluster.node tree ai and b = Cluster.node tree bi in
    let rlo = a.Cluster.lo and rhi = a.Cluster.hi in
    let clo = b.Cluster.lo and chi = b.Cluster.hi in
    let m = rhi - rlo and nc = chi - clo in
    let local i j = entry perm.(rlo + i) perm.(clo + j) in
    if far then
      match Aca.approximate ~entry:local ~m ~n:nc ~tol ~max_rank with
      | Some r ->
          slots.(p) <- Some (Far { rlo; rhi; clo; chi; u = r.u; v = r.v }, r.evals, r.rank, 0)
      | None -> raise (Stalled { rlo; clo; m; n = nc })
    else begin
      let data = Mat.init m nc local in
      slots.(p) <- Some (Near { rlo; rhi; clo; chi; data }, m * nc, 0, m * nc)
    end
  in
  match
    Util.Pool.with_jobs ?jobs (fun pool ->
        Util.Pool.parallel_for pool ~chunk:1 ~n:n_pairs (fun lo hi ->
            for p = lo to hi - 1 do
              build_pair p
            done))
  with
  | exception Stalled { rlo; clo; m; n = nc } ->
      Error
        (Printf.sprintf
           "ACA stalled at rank %d on the %dx%d far-field block at (%d, %d) \
            (tol %g)"
           max_rank m nc rlo clo tol)
  | () ->
      let blocks = Array.map (fun s -> match s with Some (b, _, _, _) -> b | None -> assert false) slots in
      let evals = ref 0 and rank_sum = ref 0 and near_entries = ref 0 in
      let near_blocks = ref 0 and far_blocks = ref 0 in
      Array.iter
        (fun s ->
          match s with
          | Some (Near _, e, r, ne) ->
              incr near_blocks;
              evals := !evals + e;
              rank_sum := !rank_sum + r;
              near_entries := !near_entries + ne
          | Some (Far _, e, r, ne) ->
              incr far_blocks;
              evals := !evals + e;
              rank_sum := !rank_sum + r;
              near_entries := !near_entries + ne
          | None -> assert false)
        slots;
      let stats =
        {
          tree_nodes = Cluster.n_nodes tree;
          tree_depth = Cluster.depth tree;
          near_blocks = !near_blocks;
          far_blocks = !far_blocks;
          near_entries = !near_entries;
          rank_sum = !rank_sum;
          entry_evals = !evals;
        }
      in
      (* bulk counter updates, totals independent of the pool size *)
      Util.Trace.add Util.Trace.kernel_evals stats.entry_evals;
      Util.Trace.add Util.Trace.nearfield_evals stats.near_entries;
      Util.Trace.add Util.Trace.aca_rank_sum stats.rank_sum;
      Util.Trace.add Util.Trace.htree_nodes stats.tree_nodes;
      Util.Trace.add Util.Trace.hmatrix_near_blocks stats.near_blocks;
      Util.Trace.add Util.Trace.hmatrix_far_blocks stats.far_blocks;
      Ok { n = Array.length points; perm; blocks; stats }

let dim t = t.n
let stats t = t.stats

let words t =
  Array.fold_left
    (fun acc b ->
      match b with
      | Near { data; _ } -> acc + (Mat.rows data * Mat.cols data)
      | Far { u; v; _ } -> acc + Lowrank.words ~u ~v)
    0 t.blocks

(* Sequential over blocks in partition order — the matvec is O(n log n),
   so there is nothing worth parallelizing at the sizes where the
   H-matrix is used, and a fixed order keeps the result
   bit-identical to any future parallel variant's combine step. *)
let apply t x =
  if Array.length x <> t.n then
    invalid_arg "Kle.Hmatrix.apply: vector length mismatch";
  let xp = Array.make t.n 0.0 in
  let yp = Array.make t.n 0.0 in
  for p = 0 to t.n - 1 do
    Array.unsafe_set xp p (Array.unsafe_get x t.perm.(p))
  done;
  Array.iter
    (fun b ->
      match b with
      | Near { rlo; rhi = _; clo; chi; data } ->
          let m = Mat.rows data and nc = chi - clo in
          for i = 0 to m - 1 do
            let acc = ref 0.0 in
            for j = 0 to nc - 1 do
              acc := !acc +. (Mat.unsafe_get data i j *. Array.unsafe_get xp (clo + j))
            done;
            Array.unsafe_set yp (rlo + i) (Array.unsafe_get yp (rlo + i) +. !acc)
          done
      | Far { rlo; rhi = _; clo; chi = _; u; v } ->
          Lowrank.apply_into ~u ~v ~x:xp ~xoff:clo ~y:yp ~yoff:rlo)
    t.blocks;
  let y = Array.make t.n 0.0 in
  for p = 0 to t.n - 1 do
    Array.unsafe_set y t.perm.(p) (Array.unsafe_get yp p)
  done;
  y
