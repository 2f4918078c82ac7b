(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (Section 5), plus the design-choice ablations of DESIGN.md.

   Usage: main.exe [subcommand] [options]
     subcommands: fig1 fig3a fig3b fig4 fig5 fig6a fig6b table1 eigtime scale
                  ablate-quad ablate-mesh ablate-eig ablate-kernel
                  ablate-recon ablate-basis ablate-qmc blocksta powergrid
                  smoke micro all  (default: all)
     options:
       --samples N      Monte Carlo samples per run (default 2000; the paper
                        uses 100K — error columns shrink accordingly)
       --table-samples N  samples for Table 1 runs (default 500)
       --max-gates N    largest circuit in the default Table 1 run (3000)
       --full           run every Table 1 circuit within the memory guard
       --mesh-frac F    max triangle area fraction (default 0.001 -> n~1546)
       --seed N         master seed (default 1)
       -j/--jobs N      worker domains for the parallel paths (1 = sequential;
                        default: available cores). Results do not depend on it.
       --json PATH      also write machine-readable benchmark records (one per
                        measured run) to PATH as a JSON array
*)

module P = Geometry.Point
module K = Kernels.Kernel

type options = {
  mutable samples : int;
  mutable table_samples : int;
  mutable max_gates : int;
  mutable full : bool;
  mutable mesh_frac : float;
  mutable seed : int;
  mutable jobs : int option;
  mutable json : string option;
  mutable trace : string option;
  mutable metrics : bool;
  mutable quick : bool;
}

let opts =
  {
    samples = 2000;
    table_samples = 500;
    max_gates = 3000;
    full = false;
    mesh_frac = 0.001;
    seed = 1;
    jobs = None;
    json = None;
    trace = None;
    metrics = false;
    quick = false;
  }

let pf fmt = Printf.printf fmt
let header title = pf "\n=== %s ===\n" title

let fmt_f = Util.Table.fmt_float

(* machine-readable records behind --json; collected unconditionally (it is
   cheap), written at exit when a path was given *)
let json_records : Bench_json.entry list ref = ref []

(* the worker-domain count a run actually used: an explicit -j as given,
   otherwise the default pool's size, resolved at report time — so rows
   never carry "jobs": null when -j was left to default *)
let effective_jobs () =
  match opts.jobs with
  | Some j -> j
  | None -> (
      match Util.Pool.default_if_created () with
      | Some pool -> Util.Pool.size pool
      | None -> Domain.recommended_domain_count ())

let emit ?(params = []) ?(stages = []) ?(counters = []) ?mesh_n ?r ?samples name
    ~wall_s =
  json_records :=
    Bench_json.Row
      {
        Bench_json.name;
        params;
        wall_s;
        per_stage_s = stages;
        counters;
        mesh_n;
        r;
        jobs = Some (effective_jobs ());
        samples;
      }
    :: !json_records

let emit_meta ?(params = []) name =
  json_records := Bench_json.Meta { name; params } :: !json_records

(* Util.Trace counter deltas since [c0] (a [Util.Trace.counters] snapshot);
   zero deltas are dropped so rows only carry the counters they moved. *)
let counters_since c0 =
  List.filter_map
    (fun (k, v) ->
      let v0 = match List.assoc_opt k c0 with Some x -> x | None -> 0 in
      if v > v0 then Some (k, v - v0) else None)
    (Util.Trace.counters ())

(* ---------------------------------------------------------------- *)
(* shared lab fixtures, built lazily so each subcommand only pays for
   what it uses *)

let paper_kernel = lazy (Kernels.Fit.paper_gaussian ())

let paper_mesh =
  lazy
    (let result, dt =
       Util.Timer.time (fun () ->
           Geometry.Refine.mesh Geometry.Rect.unit_die
             ~max_area_fraction:opts.mesh_frac ~min_angle_deg:28.0)
     in
     pf "[lab] mesh: n = %d triangles, h = %.4f, min angle = %.1f deg (%.2fs)\n%!"
       (Geometry.Mesh.size result.Geometry.Geometry_intf.mesh)
       (Geometry.Mesh.h_max result.Geometry.Geometry_intf.mesh)
       (Geometry.Mesh.min_angle_deg result.Geometry.Geometry_intf.mesh)
       dt;
     result.Geometry.Geometry_intf.mesh)

let paper_solution_time = ref nan

let paper_solution =
  lazy
    (let mesh = Lazy.force paper_mesh in
     let kernel = Lazy.force paper_kernel in
     let count = min 200 (Geometry.Mesh.size mesh) in
     let sol, dt =
       Util.Timer.time (fun () ->
           Kle.Galerkin.solve
             ~solver:(Kle.Galerkin.Lanczos { count })
             ?jobs:opts.jobs mesh kernel)
     in
     paper_solution_time := dt;
     pf "[lab] KLE eigensolution: first %d pairs in %.2fs (paper: 11.2s in Matlab)\n%!"
       count dt;
     sol)

let paper_model =
  lazy
    (let sol = Lazy.force paper_solution in
     let n = Geometry.Mesh.size (Lazy.force paper_mesh) in
     let r = Kle.Model.choose_r ~n_total:n sol.Kle.Galerkin.eigenvalues in
     pf "[lab] truncation rule selects r = %d (paper: 25)\n%!" r;
     Kle.Model.create ~r sol)

(* circuit setups are cached: fig6a/fig6b/table1 share c1908 etc. *)
let circuit_cache : (string, Ssta.Experiment.circuit_setup) Hashtbl.t = Hashtbl.create 8

let circuit name =
  match Hashtbl.find_opt circuit_cache name with
  | Some s -> s
  | None ->
      let netlist = Circuit.Generator.generate_paper name in
      let s, dt = Util.Timer.time (fun () -> Ssta.Experiment.setup_circuit netlist) in
      pf "[lab] %s: %d gates placed and prepared (%.2fs)\n%!" name
        (Circuit.Netlist.logic_gate_count netlist)
        dt;
      Hashtbl.replace circuit_cache name s;
      s

(* Algorithm 2 sampler from a precomputed model (mesh/eigensolution shared
   across circuits; eigentime is reported separately, as in the paper) *)
let a2_sampler_of_model model locations =
  let sampler, dt = Util.Timer.time (fun () -> Kle.Sampler.create model locations) in
  let sample rng ~n =
    Array.init 4 (fun _ -> Kle.Sampler.sample_matrix sampler rng ~n)
  in
  (sample, dt)

(* ---------------------------------------------------------------- *)
(* Fig 1(a): the Gaussian covariance kernel over the die *)

let fig1 () =
  header "Fig 1(a): Gaussian covariance kernel, x fixed at die center";
  let kernel = Lazy.force paper_kernel in
  pf "kernel: %s\n" (K.name kernel);
  let xs = Util.Arrayx.float_range ~start:(-1.0) ~stop:1.0 ~count:9 in
  pf "%8s" "y\\x";
  Array.iter (fun x -> pf "%8.2f" x) xs;
  pf "\n";
  Array.iter
    (fun y ->
      pf "%8.2f" y;
      Array.iter
        (fun x -> pf "%8.3f" (K.eval kernel (P.make 0.0 0.0) (P.make x y)))
        xs;
      pf "\n")
    xs

(* ---------------------------------------------------------------- *)
(* Fig 3(a): best fit of Gaussian and exponential kernels to the linear
   cone correlogram of Friedberg et al. *)

let fig3a () =
  header "Fig 3(a): kernel fits to the measurement-backed linear cone";
  let rho = 1.0 and vmax = 2.0 in
  let g1 = Kernels.Fit.fit_gaussian_to_cone ~dim:`D1 ~rho ~vmax () in
  let e1 = Kernels.Fit.fit_exponential_to_cone ~dim:`D1 ~rho ~vmax () in
  let t =
    Util.Table.create
      ~columns:
        [ ("fit (1-D, Fig 3a)", Util.Table.Left); ("kernel", Util.Table.Left);
          ("SSE", Util.Table.Right) ]
  in
  Util.Table.add_row t
    [ "gaussian"; K.name g1.Kernels.Fit.kernel; fmt_f ~digits:4 g1.Kernels.Fit.sse ];
  Util.Table.add_row t
    [ "exponential"; K.name e1.Kernels.Fit.kernel; fmt_f ~digits:4 e1.Kernels.Fit.sse ];
  Util.Table.print t;
  pf "expected shape: gaussian SSE < exponential SSE (gaussian hugs the cone)\n";
  pf "=> %s\n"
    (if g1.Kernels.Fit.sse < e1.Kernels.Fit.sse then "REPRODUCED" else "NOT reproduced");
  let g2 = Kernels.Fit.fit_gaussian_to_cone ~dim:`D2 ~rho ~vmax:(2.0 *. sqrt 2.0) () in
  pf "2-D calibration used in all experiments: %s\n" (K.name g2.Kernels.Fit.kernel);
  pf "\n%8s %10s %10s %10s\n" "v" "cone" "gauss-fit" "exp-fit";
  Array.iter
    (fun v ->
      pf "%8.3f %10.4f %10.4f %10.4f\n" v
        (Float.max 0.0 (1.0 -. (v /. rho)))
        (K.eval_distance g1.Kernels.Fit.kernel v)
        (K.eval_distance e1.Kernels.Fit.kernel v))
    (Util.Arrayx.float_range ~start:0.0 ~stop:vmax ~count:11)

(* ---------------------------------------------------------------- *)
(* Fig 3(b): kernel reconstruction error from r = 25 eigenpairs *)

let fig3b () =
  header "Fig 3(b): kernel reconstruction error from r=25 eigenpairs";
  let model = Lazy.force paper_model in
  let err_center = Kle.Model.reconstruction_error model in
  let err_pairwise = Kle.Model.reconstruction_error_pairwise ~stride:7 model in
  let err_grid = Kle.Model.reconstruction_error_grid ~grid:41 model in
  pf "max |Khat - K| from die center over mesh nodes : %.4f  (paper: 0.016)\n" err_center;
  pf "max |Khat - K| over node pairs (subsampled)    : %.4f\n" err_pairwise;
  pf "max |Khat - K| on an arbitrary 41x41 grid      : %.4f  (adds piecewise-constant floor)\n"
    err_grid;
  pf "captured variance fraction at r=%d             : %.4f\n" model.Kle.Model.r
    (Kle.Model.captured_variance_fraction model)

(* ---------------------------------------------------------------- *)
(* Fig 4: first and second eigenfunctions (ASCII shading) *)

let fig4 () =
  header "Fig 4: first two eigenfunctions of the Gaussian kernel";
  let model = Lazy.force paper_model in
  let shade v vmax =
    let ramp = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '%'; '@' |] in
    let t = (v /. vmax *. 0.5) +. 0.5 in
    let i = max 0 (min 9 (int_of_float (t *. 9.99))) in
    ramp.(i)
  in
  let print_fn j =
    let grid = 31 in
    let coords = Util.Arrayx.float_range ~start:(-0.99) ~stop:0.99 ~count:grid in
    let vmax = ref 1e-12 in
    Array.iter
      (fun y ->
        Array.iter
          (fun x ->
            vmax :=
              Float.max !vmax
                (Float.abs (Kle.Model.eval_eigenfunction model j (P.make x y))))
          coords)
      coords;
    pf "eigenfunction %d (lambda = %.4f), range +-%.3f:\n" (j + 1)
      (Kle.Model.eigenvalues model).(j)
      !vmax;
    Array.iter
      (fun y ->
        Array.iter
          (fun x ->
            let v = Kle.Model.eval_eigenfunction model j (P.make x y) in
            print_char (shade v !vmax))
          coords;
        print_newline ())
      coords;
    (* Fourier-like signature: count sign changes along the x axis *)
    let changes = ref 0 in
    let prev = ref (Kle.Model.eval_eigenfunction model j (P.make (-0.99) 0.0)) in
    Array.iter
      (fun x ->
        let v = Kle.Model.eval_eigenfunction model j (P.make x 0.0) in
        if v *. !prev < 0.0 then incr changes;
        prev := v)
      (Util.Arrayx.float_range ~start:(-0.99) ~stop:0.99 ~count:101);
    pf "sign changes along y = 0: %d\n\n" !changes
  in
  print_fn 0;
  print_fn 1;
  pf "expected shape: 1st eigenfunction has no interior zero crossing (DC-like),\n";
  pf "2nd has exactly one (first harmonic) - the \"Fourier series type behavior\".\n"

(* ---------------------------------------------------------------- *)
(* Fig 5: eigenvalue decay + the truncation rule *)

let fig5 () =
  header "Fig 5: eigenvalue decay of the Gaussian kernel";
  let sol = Lazy.force paper_solution in
  let vals = sol.Kle.Galerkin.eigenvalues in
  let n = Geometry.Mesh.size (Lazy.force paper_mesh) in
  pf "first eigenvalues (of %d computed, mesh n = %d):\n" (Array.length vals) n;
  pf "%6s %12s %14s\n" "j" "lambda_j" "cum. fraction";
  let total = Kle.Galerkin.trace (Lazy.force paper_mesh) (Lazy.force paper_kernel) in
  let cum = ref 0.0 in
  Array.iteri
    (fun j v ->
      cum := !cum +. v;
      if j < 12 || (j < 60 && (j + 1) mod 5 = 0) || (j + 1) mod 50 = 0 then
        pf "%6d %12.5f %14.5f\n" (j + 1) v (!cum /. total))
    vals;
  let r = Kle.Model.choose_r ~n_total:n vals in
  pf "truncation rule (tolerance 1%%): r = %d  (paper: 25)\n" r;
  pf "variance captured by r pairs: %.2f%%\n"
    (100.0 *. Util.Arrayx.sum (Array.sub vals 0 r) /. total)

(* ---------------------------------------------------------------- *)
(* Fig 6 support: sigma_d error of the KLE STA vs the MC reference *)

let reference_mc setup ~samples =
  let proc = Ssta.Process.paper_default () in
  let a1, prep_dt =
    Util.Timer.time (fun () ->
        Ssta.Algorithm1.prepare ?jobs:opts.jobs proc setup.Ssta.Experiment.locations)
  in
  let mc =
    Ssta.Experiment.run_mc ?jobs:opts.jobs setup
      ~sampler:(Ssta.Algorithm1.sample_block a1)
      ~seed:(opts.seed + 100) ~n:samples
  in
  (mc, prep_dt)

let kle_mc setup ~model ~samples ~seed =
  let sample, expansion_dt =
    a2_sampler_of_model model setup.Ssta.Experiment.locations
  in
  let mc = Ssta.Experiment.run_mc ?jobs:opts.jobs setup ~sampler:sample ~seed ~n:samples in
  (mc, expansion_dt)

let fig6a () =
  header "Fig 6(a): sigma_d error vs number of eigenpairs r (n fixed)";
  let setup = circuit "c1908" in
  let sol = Lazy.force paper_solution in
  let mc_ref, _ = reference_mc setup ~samples:opts.samples in
  pf "reference: %d-sample MC STA on c1908 (%d gates); mu = %.1f ps, sigma = %.2f ps\n"
    opts.samples
    (Array.length setup.Ssta.Experiment.locations)
    mc_ref.Ssta.Experiment.worst_mean mc_ref.Ssta.Experiment.worst_sigma;
  let t =
    Util.Table.create
      ~columns:
        [ ("r", Util.Table.Right); ("sigma err avg outputs (%)", Util.Table.Right);
          ("e_sigma worst-delay (%)", Util.Table.Right) ]
  in
  List.iteri
    (fun i r ->
      let model = Kle.Model.create ~r sol in
      let mc, _ = kle_mc setup ~model ~samples:opts.samples ~seed:(opts.seed + 200 + i) in
      let cmp =
        Ssta.Experiment.compare ~reference:mc_ref ~reference_setup_seconds:0.0
          ~candidate:mc ~candidate_setup_seconds:0.0
      in
      Util.Table.add_row t
        [ string_of_int r;
          fmt_f ~digits:3 cmp.Ssta.Experiment.sigma_err_avg_outputs_pct;
          fmt_f ~digits:3 cmp.Ssta.Experiment.e_sigma_pct ])
    [ 1; 2; 5; 10; 15; 20; 25; 30; 40 ];
  Util.Table.print t;
  pf "expected shape: error decreases with r and flattens around r ~ 25\n";
  pf "(MC noise floor at %d samples is ~%.1f%% on sigma estimates)\n" opts.samples
    (100.0 /. sqrt (2.0 *. float_of_int opts.samples))

let fig6b () =
  header "Fig 6(b): sigma_d error vs number of triangles n (r = 25)";
  let setup = circuit "c1908" in
  let kernel = Lazy.force paper_kernel in
  let mc_ref, _ = reference_mc setup ~samples:opts.samples in
  let t =
    Util.Table.create
      ~columns:
        [ ("n (triangles)", Util.Table.Right); ("h", Util.Table.Right);
          ("sigma err avg outputs (%)", Util.Table.Right) ]
  in
  List.iteri
    (fun i frac ->
      let mesh =
        (Geometry.Refine.mesh Geometry.Rect.unit_die ~max_area_fraction:frac
           ~min_angle_deg:28.0)
          .Geometry.Geometry_intf.mesh
      in
      let n = Geometry.Mesh.size mesh in
      let count = min 60 n in
      let sol = Kle.Galerkin.solve ~solver:(Kle.Galerkin.Lanczos { count }) mesh kernel in
      let r = min 25 count in
      let model = Kle.Model.create ~r sol in
      let mc, _ = kle_mc setup ~model ~samples:opts.samples ~seed:(opts.seed + 300 + i) in
      let cmp =
        Ssta.Experiment.compare ~reference:mc_ref ~reference_setup_seconds:0.0
          ~candidate:mc ~candidate_setup_seconds:0.0
      in
      Util.Table.add_row t
        [ string_of_int n; fmt_f ~digits:4 (Geometry.Mesh.h_max mesh);
          fmt_f ~digits:3 cmp.Ssta.Experiment.sigma_err_avg_outputs_pct ])
    [ 0.02; 0.01; 0.006; 0.003; 0.0015; 0.001 ];
  Util.Table.print t;
  pf "expected shape: error decreases with n, saturating at the MC noise floor\n"

(* ---------------------------------------------------------------- *)
(* Table 1: per-circuit comparison of MC STA vs covariance-kernel STA *)

let memory_guard_bytes = 2_000_000_000

let table1 () =
  header "Table 1: worst-delay mean/sigma mismatch and speedup per circuit";
  let samples = opts.table_samples in
  pf "samples per run: %d (paper: 100K); max gates: %s\n" samples
    (if opts.full then "unlimited (--full)" else string_of_int opts.max_gates);
  let model = Lazy.force paper_model in
  pf "KLE eigensolution shared across circuits (reported separately, as in the paper)\n";
  let t =
    Util.Table.create
      ~columns:
        [ ("Circuit", Util.Table.Left); ("N_g", Util.Table.Right);
          ("e_mu (%)", Util.Table.Right); ("e_sigma (%)", Util.Table.Right);
          ("Speedup", Util.Table.Right); ("t_MC (s)", Util.Table.Right);
          ("t_KLE (s)", Util.Table.Right) ]
  in
  let skipped = ref [] in
  List.iteri
    (fun idx (name, n_gates) ->
      let mem = Ssta.Algorithm1.memory_bytes ~n_locations:n_gates ~n_parameters:1 in
      if (not opts.full) && n_gates > opts.max_gates then
        skipped := (name, n_gates, "over --max-gates") :: !skipped
      else if mem > memory_guard_bytes then
        skipped := (name, n_gates, "memory guard") :: !skipped
      else begin
        let setup = circuit name in
        let mc_ref, a1_setup = reference_mc setup ~samples in
        let mc_kle, a2_setup =
          kle_mc setup ~model ~samples ~seed:(opts.seed + 400 + idx)
        in
        let cmp =
          Ssta.Experiment.compare ~reference:mc_ref ~reference_setup_seconds:a1_setup
            ~candidate:mc_kle ~candidate_setup_seconds:a2_setup
        in
        let total r setup_s =
          setup_s +. r.Ssta.Experiment.sample_seconds +. r.Ssta.Experiment.sta_seconds
        in
        Util.Table.add_row t
          [ name; string_of_int n_gates;
            fmt_f ~digits:3 cmp.Ssta.Experiment.e_mu_pct;
            fmt_f ~digits:3 cmp.Ssta.Experiment.e_sigma_pct;
            fmt_f ~digits:2 cmp.Ssta.Experiment.speedup;
            fmt_f ~digits:2 (total mc_ref a1_setup);
            fmt_f ~digits:2 (total mc_kle a2_setup) ];
        pf "[table1] %s done\n%!" name
      end)
    Circuit.Generator.paper_suite;
  Util.Table.print t;
  List.iter
    (fun (name, n, why) -> pf "skipped %-8s (N_g = %5d): %s\n" name n why)
    (List.rev !skipped);
  pf "\npaper shape to compare: e_mu < 0.11%%, e_sigma < 5.7%%, speedup rising\n";
  pf "from ~0.3 at 383 gates to ~10x at 10-20k gates (crossover near ~1.5k gates).\n";
  pf "With %d samples the e_sigma noise floor is ~%.1f%%.\n" samples
    (100.0 /. sqrt (2.0 *. float_of_int samples))

(* ---------------------------------------------------------------- *)
(* eigentime: the paper's "eigenpair computation takes 11.2s" *)

let eigtime () =
  header "Eigenpair computation time (paper Sec 5.2: 11.2s in Matlab)";
  let mesh = Lazy.force paper_mesh in
  let kernel = Lazy.force paper_kernel in
  let c0 = Util.Trace.counters () in
  let _, dt_assemble =
    Util.Timer.time (fun () -> Kle.Galerkin.assemble ?jobs:opts.jobs mesh kernel)
  in
  ignore (Lazy.force paper_solution);
  pf "matrix assembly (n = %d): %.2fs\n" (Geometry.Mesh.size mesh) dt_assemble;
  pf "Lanczos top-200 eigensolution: %.2fs (see [lab] line above)\n" !paper_solution_time;
  emit "eigtime"
    ~params:[ ("mesh_frac", Bench_json.Float opts.mesh_frac) ]
    ~stages:[ ("assemble", dt_assemble); ("lanczos", !paper_solution_time) ]
    ~counters:(counters_since c0)
    ~mesh_n:(Geometry.Mesh.size mesh)
    ~r:(min 200 (Geometry.Mesh.size mesh))
    ~wall_s:(dt_assemble +. !paper_solution_time)

(* ---------------------------------------------------------------- *)
(* scale: sweep the mesh size across all three apply strategies.  Uses a
   Matern kernel with non-half-integer smoothness, whose exact evaluation
   goes through Bessel-K quadrature — the expensive-kernel regime the
   radial profile table targets.  The assembled path pays ~n^2/2 exact
   evaluations; the table (matrix-free) path pays a fixed table build plus
   O(n^2) cheap lookups per matvec; the hierarchical path pays an
   O(n log n) ACA build once and O(n log n) per matvec after, so it is the
   only strategy that survives past n ~ 10^4.  Expensive references are
   dropped as n grows (assembled above [asm_cap], table above [table_cap]);
   accuracy is checked against the best reference still standing. *)

let scale () =
  header "Scale: assembled vs table vs hierarchical eigensolve";
  let kernel = K.Matern { b = 2.0; s = 2.3 } in
  let count_cap = 25 in
  (* ACA block tolerance 1e-8; the eigenvalue gate is 1e-6 — two orders of
     margin absorb the Frobenius-to-spectral slack of the block bound *)
  let hier = { Kle.Hmatrix.default_params with Kle.Hmatrix.tol = 1e-8 } in
  let gate = 1e-6 in
  let asm_cap = 3500 and table_cap = 7000 in
  pf "kernel: %s (exact evaluation via Bessel-K quadrature)\n" (K.name kernel);
  pf "ACA tol %.0e, eta %g, leaf %d; gate %.0e on the leading k-2 eigenvalues\n"
    hier.Kle.Hmatrix.tol hier.Kle.Hmatrix.eta hier.Kle.Hmatrix.leaf_size gate;
  let t =
    Util.Table.create
      ~columns:
        [ ("n (triangles)", Util.Table.Right); ("k", Util.Table.Right);
          ("assembled (s)", Util.Table.Right); ("table (s)", Util.Table.Right);
          ("hier build (s)", Util.Table.Right); ("hier solve (s)", Util.Table.Right);
          ("entry evals", Util.Table.Right); ("mem vs dense", Util.Table.Right);
          ("max rel dlambda", Util.Table.Right) ]
  in
  let crossover = ref None in
  (* (n, entry_evals, words) of the hierarchical builds, for the
     growth-exponent fit and the large-n extrapolation *)
  let hpoints = ref [] in
  List.iter
    (fun frac ->
      let mesh =
        (Geometry.Refine.mesh Geometry.Rect.unit_die ~max_area_fraction:frac
           ~min_angle_deg:28.0)
          .Geometry.Geometry_intf.mesh
      in
      let n = Geometry.Mesh.size mesh in
      let count = min count_cap n in
      let solver = Kle.Galerkin.Lanczos { count } in
      let asm =
        if n > asm_cap then None
        else
          Some
            (Util.Timer.time (fun () ->
                 Kle.Galerkin.solve ~mode:Kle.Galerkin.Assembled ~solver
                   ?jobs:opts.jobs mesh kernel))
      in
      let tab =
        if n > table_cap then None
        else
          Some
            (Util.Timer.time (fun () ->
                 Kle.Galerkin.solve ~mode:Kle.Galerkin.Matrix_free ~solver
                   ?jobs:opts.jobs mesh kernel))
      in
      (* hierarchical: build and solve timed apart, so the one-off
         compression cost is visible next to the per-solve payoff *)
      let c0 = Util.Trace.counters () in
      let hm, t_build =
        Util.Timer.time (fun () ->
            Kle.Operator.hmatrix_galerkin ~hier ?jobs:opts.jobs mesh kernel)
      in
      let hm =
        match hm with
        | Ok h -> h
        | Error msg ->
            pf "FAIL: hierarchical build stalled at n=%d: %s\n" n msg;
            exit 1
      in
      let hsol, t_hsolve =
        Util.Timer.time (fun () ->
            Kle.Galerkin.solve_with_operator ~solver ?jobs:opts.jobs
              ~op:(Kle.Operator.of_hmatrix hm) mesh kernel)
      in
      let stats = hm.Kle.Hmatrix.stats in
      let words = Kle.Hmatrix.words hm in
      let dense_words = n * n in
      hpoints := (n, stats.Kle.Hmatrix.entry_evals, words) :: !hpoints;
      (* accuracy vs the best exact-apply reference still standing; the
         leading k-2 values only — at the Krylov-budget edge the last pair
         is loose_ok territory, where near-degenerate tail eigenvalues may
         index-shift between operators differing by the ACA tolerance *)
      let reference = match asm with Some (s, _) -> Some s | None -> Option.map fst tab in
      let rel =
        Option.map
          (fun (rsol : Kle.Galerkin.solution) ->
            let acc = ref 0.0 in
            for j = 0 to count - 3 do
              let a = rsol.Kle.Galerkin.eigenvalues.(j)
              and h = hsol.Kle.Galerkin.eigenvalues.(j) in
              acc :=
                Float.max !acc
                  (Float.abs (a -. h) /. Float.max (Float.abs a) 1e-300)
            done;
            !acc)
          reference
      in
      (match rel with
      | Some r when r > gate ->
          pf "FAIL: hierarchical eigenvalues off by %.2e (> %.0e) at n=%d\n" r gate n;
          exit 1
      | _ -> ());
      let t_hier = t_build +. t_hsolve in
      (match tab with
      | Some (_, t_tab) when t_hier < t_tab && Option.is_none !crossover ->
          crossover := Some n
      | _ -> ());
      let opt_time = function Some (_, dt) -> fmt_f ~digits:3 dt | None -> "—" in
      Util.Table.add_row t
        [ string_of_int n; string_of_int count; opt_time asm; opt_time tab;
          fmt_f ~digits:3 t_build; fmt_f ~digits:3 t_hsolve;
          string_of_int stats.Kle.Hmatrix.entry_evals;
          Printf.sprintf "%.1f%%" (100.0 *. float_of_int words /. float_of_int dense_words);
          (match rel with Some r -> Printf.sprintf "%.2e" r | None -> "—") ];
      let stages =
        List.concat
          [ (match asm with Some (_, dt) -> [ ("assembled", dt) ] | None -> []);
            (match tab with Some (_, dt) -> [ ("table", dt) ] | None -> []);
            [ ("hier_build", t_build); ("hier_solve", t_hsolve) ] ]
      in
      emit "scale"
        ~params:
          [ ("kernel", Bench_json.String (K.name kernel));
            ("mesh_frac", Bench_json.Float frac);
            ("aca_tol", Bench_json.Float hier.Kle.Hmatrix.tol);
            ( "max_rel_dlambda",
              match rel with Some r -> Bench_json.Float r | None -> Bench_json.Null );
            ("hier_words", Bench_json.Int words);
            ("dense_words", Bench_json.Int dense_words);
            ("near_blocks", Bench_json.Int stats.Kle.Hmatrix.near_blocks);
            ("far_blocks", Bench_json.Int stats.Kle.Hmatrix.far_blocks);
            ("aca_rank_sum", Bench_json.Int stats.Kle.Hmatrix.rank_sum) ]
        ~stages
        ~counters:(counters_since c0)
        ~mesh_n:n ~r:count
        ~wall_s:
          (List.fold_left (fun a (_, dt) -> a +. dt) 0.0 stages))
    (* sweep starts above n = 4k+80, where the Lanczos Krylov budget stops
       covering the whole space: at full dimension the recurrence breaks down
       and can emit ghost duplicate eigenvalues, which would fail the
       agreement gate for reasons unrelated to the apply strategy *)
    [ 0.005; 0.0025; 0.00125; 0.001; 0.0005; 0.00025; 0.0001 ];
  Util.Table.print t;
  (match !crossover with
  | Some n ->
      pf "crossover: hierarchical (build + solve) beats the table apply from n = %d onwards\n" n;
      emit_meta "scale-crossover" ~params:[ ("crossover_n", Bench_json.Int n) ]
  | None ->
      pf "no crossover in this sweep: the table apply won at every measured n\n";
      emit_meta "scale-crossover" ~params:[ ("crossover_n", Bench_json.Null) ]);
  (* growth exponents from the last two hierarchical points, and the n = 10^5
     extrapolation the quadratic strategies cannot reach. Work and memory are
     fitted separately: entry evaluations and stored words grow at different
     rates, so sharing one exponent would overstate whichever is flatter. *)
  (match !hpoints with
  | (n2, e2, w2) :: (n1, e1, w1) :: _ when n2 > n1 ->
      let fit_exponent v1 v2 =
        log (float_of_int v2 /. float_of_int v1)
        /. log (float_of_int n2 /. float_of_int n1)
      in
      let work_exponent = fit_exponent e1 e2 in
      let mem_exponent = fit_exponent w1 w2 in
      let nx = 100_000 in
      let scale_to exponent v =
        float_of_int v *. ((float_of_int nx /. float_of_int n2) ** exponent)
      in
      pf
        "growth exponents over the last doubling: entry evals n^%.2f, words n^%.2f \
         (dense: n^2)\n"
        work_exponent mem_exponent;
      pf "extrapolated to n = %d: %.2e entry evals / %.2e words (dense: %.2e / %.2e)\n"
        nx
        (scale_to work_exponent e2)
        (scale_to mem_exponent w2)
        (0.5 *. float_of_int nx *. float_of_int nx)
        (float_of_int nx *. float_of_int nx);
      emit_meta "scale-extrapolation"
        ~params:
          [ ("exponent", Bench_json.Float work_exponent);
            ("mem_exponent", Bench_json.Float mem_exponent);
            ("n", Bench_json.Int nx);
            ("entry_evals", Bench_json.Float (scale_to work_exponent e2));
            ("words", Bench_json.Float (scale_to mem_exponent w2)) ]
  | _ -> ());
  pf "eigenvalue agreement <= %.0e checked wherever an exact reference ran\n" gate

(* ---------------------------------------------------------------- *)
(* Ablations *)

let ablate_quad () =
  header "Ablation: quadrature order (centroid vs 3-point mid-edge)";
  let c = 1.0 in
  let kernel = K.Separable_exp_l1 { c } in
  let exact = Kernels.Analytic_kle.exp_2d ~c ~rect:Geometry.Rect.unit_die ~count:5 in
  let t =
    Util.Table.create
      ~columns:
        [ ("divisions", Util.Table.Right); ("n", Util.Table.Right);
          ("centroid max rel err", Util.Table.Right);
          ("mid-edge max rel err", Util.Table.Right) ]
  in
  List.iter
    (fun divisions ->
      let mesh = Geometry.Mesh.uniform Geometry.Rect.unit_die ~divisions in
      let err quadrature =
        let sol =
          Kle.Galerkin.solve ~quadrature ~solver:(Kle.Galerkin.Lanczos { count = 5 })
            mesh kernel
        in
        let worst = ref 0.0 in
        for i = 0 to 4 do
          let e = exact.(i).Kernels.Analytic_kle.lambda in
          worst :=
            Float.max !worst
              (Float.abs (sol.Kle.Galerkin.eigenvalues.(i) -. e) /. e)
        done;
        !worst
      in
      Util.Table.add_row t
        [ string_of_int divisions;
          string_of_int (Geometry.Mesh.size mesh);
          Printf.sprintf "%.2e" (err Kle.Galerkin.Centroid);
          Printf.sprintf "%.2e" (err Kle.Galerkin.Midedge) ])
    [ 3; 6; 12 ];
  Util.Table.print t;
  pf
    "expected: both converge with n (Theorem 2); mid-edge is tighter on coarse\n\
     meshes, while the exp kernel's diagonal kink erodes its edge as h shrinks.\n"

(* anisotropic grid mesh: nx x ny cells split along a diagonal, giving
   min angles of atan(ny/nx) when stretched *)
let anisotropic_mesh nx ny =
  let rect = Geometry.Rect.unit_die in
  let pts = Geometry.Rect.sample_grid rect ~nx:(nx + 1) ~ny:(ny + 1) in
  let tris = ref [] in
  for iy = 0 to ny - 1 do
    for ix = 0 to nx - 1 do
      let p00 = (iy * (nx + 1)) + ix in
      let p10 = p00 + 1 in
      let p01 = p00 + nx + 1 in
      let p11 = p01 + 1 in
      tris := (p00, p10, p11) :: (p00, p11, p01) :: !tris
    done
  done;
  Geometry.Mesh.make rect pts (Array.of_list !tris)

let ablate_mesh () =
  header "Ablation: element quality (equilateral-ish vs stretched) at equal n";
  let c = 1.0 in
  let kernel = K.Separable_exp_l1 { c } in
  let exact =
    (Kernels.Analytic_kle.exp_2d ~c ~rect:Geometry.Rect.unit_die ~count:1).(0)
      .Kernels.Analytic_kle.lambda
  in
  let t =
    Util.Table.create
      ~columns:
        [ ("mesh", Util.Table.Left); ("n", Util.Table.Right);
          ("min angle", Util.Table.Right); ("h", Util.Table.Right);
          ("lambda_1 rel err", Util.Table.Right) ]
  in
  let eval name mesh =
    let sol =
      Kle.Galerkin.solve ~solver:(Kle.Galerkin.Lanczos { count = 1 }) mesh kernel
    in
    Util.Table.add_row t
      [ name; string_of_int (Geometry.Mesh.size mesh);
        fmt_f ~digits:1 (Geometry.Mesh.min_angle_deg mesh);
        fmt_f ~digits:3 (Geometry.Mesh.h_max mesh);
        Printf.sprintf "%.2e"
          (Float.abs (sol.Kle.Galerkin.eigenvalues.(0) -. exact) /. exact) ]
  in
  (* same element count n = 512, increasingly stretched cells *)
  eval "16 x 16 (isotropic)" (anisotropic_mesh 16 16);
  eval "32 x 8 (4:1)" (anisotropic_mesh 32 8);
  eval "64 x 4 (16:1)" (anisotropic_mesh 64 4);
  eval "128 x 2 (64:1)" (anisotropic_mesh 128 2);
  eval "refined (28 deg)"
    (Geometry.Refine.mesh Geometry.Rect.unit_die ~max_area_fraction:(2.0 /. 256.0)
       ~min_angle_deg:28.0)
      .Geometry.Geometry_intf.mesh;
  Util.Table.print t;
  pf
    "expected: at equal n, stretched elements blow up h (Theorem 2's error\n\
     driver) and the eigenvalue error with it - why the paper constrains the\n\
     minimum angle.\n"

let ablate_eig () =
  header "Ablation: eigensolver (dense QL vs Lanczos top-k)";
  let mesh =
    (Geometry.Refine.mesh Geometry.Rect.unit_die ~max_area_fraction:0.01
       ~min_angle_deg:28.0)
      .Geometry.Geometry_intf.mesh
  in
  let kernel = Lazy.force paper_kernel in
  let dense, t_dense =
    Util.Timer.time (fun () -> Kle.Galerkin.solve ~solver:Kle.Galerkin.Dense mesh kernel)
  in
  let lanczos, t_lanczos =
    Util.Timer.time (fun () ->
        Kle.Galerkin.solve ~solver:(Kle.Galerkin.Lanczos { count = 25 }) mesh kernel)
  in
  let diff = ref 0.0 in
  for i = 0 to 24 do
    diff :=
      Float.max !diff
        (Float.abs
           (dense.Kle.Galerkin.eigenvalues.(i)
           -. lanczos.Kle.Galerkin.eigenvalues.(i)))
  done;
  pf "mesh n = %d\n" (Geometry.Mesh.size mesh);
  pf "dense (all pairs):   %.3fs\n" t_dense;
  pf "lanczos (25 pairs):  %.3fs\n" t_lanczos;
  pf "max |lambda| difference over 25 pairs: %.2e\n" !diff;
  pf "expected: agreement to ~1e-9; Lanczos much faster as n grows.\n"

let ablate_kernel () =
  header "Ablation: kernel family vs eigenvalue decay (r for 99% variance)";
  let mesh =
    (Geometry.Refine.mesh Geometry.Rect.unit_die ~max_area_fraction:0.004
       ~min_angle_deg:28.0)
      .Geometry.Geometry_intf.mesh
  in
  let n = Geometry.Mesh.size mesh in
  let t =
    Util.Table.create
      ~columns:
        [ ("kernel", Util.Table.Left); ("lambda_1", Util.Table.Right);
          ("r (trunc. rule)", Util.Table.Right);
          ("r (99% variance)", Util.Table.Right) ]
  in
  List.iter
    (fun kernel ->
      let count = min 150 n in
      let sol = Kle.Galerkin.solve ~solver:(Kle.Galerkin.Lanczos { count }) mesh kernel in
      let vals = sol.Kle.Galerkin.eigenvalues in
      let total = Kle.Galerkin.trace mesh kernel in
      let r_rule = Kle.Model.choose_r ~n_total:n vals in
      let r99 =
        let cum = ref 0.0 in
        let r = ref count in
        (try
           Array.iteri
             (fun i v ->
               cum := !cum +. v;
               if !cum >= 0.99 *. total then begin
                 r := i + 1;
                 raise Exit
               end)
             vals
         with Exit -> ());
        !r
      in
      Util.Table.add_row t
        [ K.name kernel; fmt_f ~digits:4 vals.(0); string_of_int r_rule;
          string_of_int r99 ])
    [
      Lazy.force paper_kernel;
      K.Matern { b = 2.0; s = 2.5 };
      K.Exponential { c = 1.5 };
      K.Spherical { rho = 1.0 };
    ];
  Util.Table.print t;
  pf "expected: smooth kernels (gaussian, high-s Matern) compress into few RVs;\n";
  pf "rough kernels (exponential) need many more - the cost of realism in the model.\n"

let ablate_recon () =
  header "Ablation: Algorithm 2 reconstruction (paper-literal vs direct gather)";
  let setup = circuit "c1908" in
  let model = Lazy.force paper_model in
  let sampler = Kle.Sampler.create model setup.Ssta.Experiment.locations in
  let n = opts.samples in
  let _, t_literal =
    Util.Timer.time (fun () ->
        ignore
          (Kle.Sampler.sample_matrix ~paper_literal:true sampler
             (Prng.Rng.create ~seed:1) ~n))
  in
  let _, t_direct =
    Util.Timer.time (fun () ->
        ignore (Kle.Sampler.sample_matrix_direct sampler (Prng.Rng.create ~seed:1) ~n))
  in
  pf "samples: %d, gates: %d, mesh n: %d, r: %d\n" n
    (Array.length setup.Ssta.Experiment.locations)
    (Geometry.Mesh.size model.Kle.Model.solution.Kle.Galerkin.mesh)
    model.Kle.Model.r;
  pf "paper-literal (expand all triangles, then gather): %.3fs\n" t_literal;
  pf "direct (expand only at gate rows):                 %.3fs\n" t_direct;
  pf "the overhead the paper attributes to eq. (28) is avoidable for fixed gates.\n"

let ablate_qmc () =
  header "Ablation: quasi-Monte Carlo in the reduced KLE space (a dividend of r=25)";
  let setup = circuit "c880" in
  let model = Lazy.force paper_model in
  let sampler = Kle.Sampler.create model setup.Ssta.Experiment.locations in
  let r = model.Kle.Model.r in
  (* sampler adapters: one parameter field per block, 4 independent streams *)
  let mc_sampler rng ~n =
    Array.init 4 (fun _ -> Kle.Sampler.sample_matrix_direct sampler rng ~n)
  in
  let qmc_sampler seqs _rng ~n =
    Array.map
      (fun seq -> Kle.Sampler.sample_matrix_with sampler ~xi:(Prng.Lowdisc.normal_matrix seq ~rows:n))
      seqs
  in
  (* tight reference *)
  let reference =
    Ssta.Experiment.run_mc setup ~sampler:mc_sampler ~seed:(opts.seed + 900) ~n:20_000
  in
  pf "reference: 20000-sample MC; mu = %.2f, sigma = %.3f\n" reference.Ssta.Experiment.worst_mean
    reference.Ssta.Experiment.worst_sigma;
  let t =
    Util.Table.create
      ~columns:
        [ ("N", Util.Table.Right); ("MC |mu err| (ps)", Util.Table.Right);
          ("QMC |mu err| (ps)", Util.Table.Right);
          ("MC |sigma err|", Util.Table.Right); ("QMC |sigma err|", Util.Table.Right) ]
  in
  let replications = 4 in
  List.iter
    (fun n ->
      let rms errs = sqrt (Util.Arrayx.sum (Array.map (fun e -> e *. e) errs) /. float_of_int replications) in
      let mu_mc = Array.make replications 0.0 and sd_mc = Array.make replications 0.0 in
      let mu_qmc = Array.make replications 0.0 and sd_qmc = Array.make replications 0.0 in
      for rep = 0 to replications - 1 do
        let res =
          Ssta.Experiment.run_mc setup ~sampler:mc_sampler
            ~seed:(opts.seed + 1000 + (13 * rep)) ~n
        in
        mu_mc.(rep) <- res.Ssta.Experiment.worst_mean -. reference.Ssta.Experiment.worst_mean;
        sd_mc.(rep) <- res.Ssta.Experiment.worst_sigma -. reference.Ssta.Experiment.worst_sigma;
        let shift = Prng.Rng.create ~seed:(opts.seed + 2000 + (7 * rep)) in
        let seqs = Array.init 4 (fun _ -> Prng.Lowdisc.create ~shift_rng:shift ~dim:r ()) in
        let res =
          Ssta.Experiment.run_mc setup ~sampler:(qmc_sampler seqs)
            ~seed:(opts.seed + 3000 + rep) ~n
        in
        mu_qmc.(rep) <- res.Ssta.Experiment.worst_mean -. reference.Ssta.Experiment.worst_mean;
        sd_qmc.(rep) <- res.Ssta.Experiment.worst_sigma -. reference.Ssta.Experiment.worst_sigma
      done;
      Util.Table.add_row t
        [ string_of_int n; fmt_f ~digits:3 (rms mu_mc); fmt_f ~digits:3 (rms mu_qmc);
          fmt_f ~digits:3 (rms sd_mc); fmt_f ~digits:3 (rms sd_qmc) ])
    [ 250; 1000; 3000 ];
  Util.Table.print t;
  pf
    "expected: on the MEAN, scrambled-Halton QMC beats MC by several-fold at\n\
     every N (usable only because KLE compressed the field into %d dims).\n\
     SIGMA keeps a small QMC bias (variance functionals need stronger\n\
     scrambling, e.g. Owen-scrambled Sobol); use MC for tail statistics.\n"
    r;
  ignore replications

let powergrid () =
  header "Extension: variational power-grid (IR drop) analysis with KLE leakage";
  let grid = Powergrid.Grid.create ~nodes_per_side:20 Geometry.Rect.unit_die in
  let leakage = Powergrid.Leakage.default in
  let model = Lazy.force paper_model in
  let proc = Ssta.Process.paper_default () in
  let samples = min opts.samples 2000 in
  let t =
    Util.Table.create
      ~columns:
        [ ("Circuit", Util.Table.Left); ("N_g", Util.Table.Right);
          ("e_mu (%)", Util.Table.Right); ("e_sigma (%)", Util.Table.Right);
          ("Speedup", Util.Table.Right) ]
  in
  List.iteri
    (fun idx name ->
      let setup = circuit name in
      let a1, a1_setup =
        Util.Timer.time (fun () ->
            Ssta.Algorithm1.prepare proc setup.Ssta.Experiment.locations)
      in
      let r1 =
        Powergrid.Analysis.run ~grid ~leakage
          ~gate_locations:setup.Ssta.Experiment.locations
          ~sampler:(Ssta.Algorithm1.sample_block a1)
          ~seed:(opts.seed + 700 + idx) ~n:samples ()
      in
      let kle_sample, a2_setup =
        a2_sampler_of_model model setup.Ssta.Experiment.locations
      in
      let r2 =
        Powergrid.Analysis.run ~grid ~leakage
          ~gate_locations:setup.Ssta.Experiment.locations ~sampler:kle_sample
          ~seed:(opts.seed + 800 + idx) ~n:samples ()
      in
      let rel a b = 100.0 *. Float.abs (a -. b) /. b in
      let total (r : Powergrid.Analysis.result) setup_s =
        setup_s +. r.Powergrid.Analysis.sample_seconds +. r.Powergrid.Analysis.solve_seconds
      in
      Util.Table.add_row t
        [ name;
          string_of_int (Array.length setup.Ssta.Experiment.locations);
          fmt_f ~digits:3
            (rel r2.Powergrid.Analysis.max_drop_mean r1.Powergrid.Analysis.max_drop_mean);
          fmt_f ~digits:3
            (rel r2.Powergrid.Analysis.max_drop_sigma r1.Powergrid.Analysis.max_drop_sigma);
          fmt_f ~digits:2 (total r1 a1_setup /. total r2 a2_setup) ])
    [ "c880"; "c1908"; "c3540" ];
  Util.Table.print t;
  pf
    "the paper's claim \"we expect these trends to replicate in other CAD\n\
     algorithms\": same KLE model, different consumer (lognormal leakage +\n\
     grid solve), same accuracy-and-speedup shape. %d samples, 20x20 grid.\n"
    samples

let blocksta () =
  header "Extension: block-based SSTA on the KLE basis (single pass vs Monte Carlo)";
  let model = Lazy.force paper_model in
  let models = Array.make 4 model in
  let t =
    Util.Table.create
      ~columns:
        [ ("Circuit", Util.Table.Left); ("N_g", Util.Table.Right);
          ("e_mu (%)", Util.Table.Right); ("e_sigma (%)", Util.Table.Right);
          ("t_block (ms)", Util.Table.Right); ("t_MC-KLE (s)", Util.Table.Right) ]
  in
  List.iteri
    (fun idx name ->
      let setup = circuit name in
      let blk = Ssta.Block_ssta.run setup ~models in
      let mc, _ = kle_mc setup ~model ~samples:opts.samples ~seed:(opts.seed + 600 + idx) in
      let e_mu, e_sigma = Ssta.Block_ssta.validate_against_mc blk ~reference:mc in
      Util.Table.add_row t
        [ name;
          string_of_int (Array.length setup.Ssta.Experiment.locations);
          fmt_f ~digits:3 e_mu; fmt_f ~digits:2 e_sigma;
          fmt_f ~digits:1 (1000.0 *. blk.Ssta.Block_ssta.analysis_seconds);
          fmt_f ~digits:2 (mc.Ssta.Experiment.sample_seconds +. mc.Ssta.Experiment.sta_seconds) ])
    [ "c880"; "c1908"; "c3540"; "s5378" ];
  Util.Table.print t;
  pf
    "the Chang-Sapatnekar-class consumer of the KLE basis: one canonical-form\n\
     pass with Clark's max replaces %d Monte Carlo timing passes; errors are\n\
     the Clark + linearization approximation, measured against MC on the SAME\n\
     KLE model (MC noise floor ~%.1f%% on sigma).\n"
    opts.samples
    (100.0 /. sqrt (2.0 *. float_of_int opts.samples))

let ablate_basis () =
  header "Ablation: Galerkin basis order (P0 piecewise-constant vs P1 linear)";
  let kernel = Lazy.force paper_kernel in
  let t =
    Util.Table.create
      ~columns:
        [ ("mesh", Util.Table.Right); ("n elems", Util.Table.Right);
          ("P0 grid recon err", Util.Table.Right);
          ("P1 grid recon err", Util.Table.Right) ]
  in
  List.iter
    (fun divisions ->
      let mesh = Geometry.Mesh.uniform Geometry.Rect.unit_die ~divisions in
      let p0 =
        Kle.Galerkin.solve ~solver:(Kle.Galerkin.Lanczos { count = 25 }) mesh kernel
      in
      let m0 = Kle.Model.create ~r:25 p0 in
      let p1 = Kle.P1.solve ~count:25 mesh kernel in
      let ev = Kle.P1.evaluator p1 in
      Util.Table.add_row t
        [ Printf.sprintf "%dx%d" divisions divisions;
          string_of_int (Geometry.Mesh.size mesh);
          fmt_f ~digits:4 (Kle.Model.reconstruction_error_grid ~grid:31 m0);
          fmt_f ~digits:4 (Kle.P1.reconstruction_error_grid ~grid:31 ev ~r:25) ])
    [ 6; 8; 10; 14 ];
  Util.Table.print t;
  pf
    "expected: the continuous P1 basis (the paper's \"higher order\" extension)\n\
     removes the blocky between-node floor of the piecewise-constant basis -\n\
     several times lower reconstruction error at equal mesh size.\n"

(* ---------------------------------------------------------------- *)
(* Bechamel micro-benchmarks: one Test per table/figure pipeline kernel *)

let micro () =
  header "Bechamel micro-benchmarks (per table/figure pipeline stage)";
  let open Bechamel in
  let mesh_coarse = Geometry.Mesh.uniform Geometry.Rect.unit_die ~divisions:8 in
  let kernel = Lazy.force paper_kernel in
  let spd =
    Kernels.Validity.gram kernel
      (Kernels.Validity.random_points ~seed:3 ~n:300 Geometry.Rect.unit_die)
  in
  let mvn = Prng.Mvn.of_covariance spd in
  let sol =
    Kle.Galerkin.solve ~solver:(Kle.Galerkin.Lanczos { count = 25 }) mesh_coarse kernel
  in
  let model = Kle.Model.create ~r:25 sol in
  let setup = circuit "c880" in
  let kle_sampler = Kle.Sampler.create model setup.Ssta.Experiment.locations in
  let n_gates = Circuit.Netlist.size setup.Ssta.Experiment.netlist in
  let zeros = Array.make n_gates 0.0 in
  let rng = Prng.Rng.create ~seed:11 in
  let tests =
    [
      Test.make ~name:"fig3b/galerkin-assemble-n256"
        (Staged.stage (fun () -> ignore (Kle.Galerkin.assemble mesh_coarse kernel)));
      Test.make ~name:"fig5/lanczos-top25-n256"
        (Staged.stage (fun () ->
             ignore
               (Kle.Galerkin.solve
                  ~solver:(Kle.Galerkin.Lanczos { count = 25 })
                  mesh_coarse kernel)));
      Test.make ~name:"table1/cholesky-n300"
        (Staged.stage (fun () -> ignore (Linalg.Cholesky.factor_jittered spd)));
      Test.make ~name:"table1/mc-sample-row-n300"
        (Staged.stage (fun () -> ignore (Prng.Mvn.sample mvn rng)));
      Test.make ~name:"table1/kle-sample-row-c880"
        (Staged.stage (fun () -> ignore (Kle.Sampler.sample kle_sampler rng)));
      Test.make ~name:"table1/sta-run-c880"
        (Staged.stage (fun () ->
             ignore
               (Sta.Timing.run setup.Ssta.Experiment.sta ~l:zeros ~w:zeros ~vt:zeros
                  ~tox:zeros)));
      Test.make ~name:"fig6b/mesh-refine-n150"
        (Staged.stage (fun () ->
             ignore
               (Geometry.Refine.mesh Geometry.Rect.unit_die ~max_area_fraction:0.01
                  ~min_angle_deg:28.0)));
      Test.make ~name:"fig3a/kernel-fit"
        (Staged.stage (fun () ->
             ignore (Kernels.Fit.fit_gaussian_to_cone ~dim:`D1 ~rho:1.0 ~vmax:2.0 ())));
    ]
  in
  let test = Test.make_grouped ~name:"kle-ssta" ~fmt:"%s %s" tests in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances test in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with Some (x :: _) -> x | _ -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  let t =
    Util.Table.create
      ~columns:[ ("benchmark", Util.Table.Left); ("time/run", Util.Table.Right) ]
  in
  let human ns =
    if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
    else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  List.iter
    (fun (name, ns) -> Util.Table.add_row t [ name; human ns ])
    (List.sort (fun (a, _) (b, _) -> String.compare a b) !rows);
  Util.Table.print t

(* ---------------------------------------------------------------- *)
(* smoke: fast CI check of the domain-parallel paths — asserts that a tiny
   Galerkin assembly and a small Monte Carlo run are bit-identical at -j 1
   and -j 2, and prints their timings *)

let smoke () =
  header "Smoke: parallel paths bit-identical across -j (tiny fixtures)";
  let c0 = Util.Trace.counters () in
  let mesh = Geometry.Mesh.uniform Geometry.Rect.unit_die ~divisions:6 in
  let kernel = Lazy.force paper_kernel in
  let assemble jobs = Kle.Galerkin.assemble ~jobs mesh kernel in
  let c1, dt1 = Util.Timer.time (fun () -> assemble 1) in
  let c2, dt2 = Util.Timer.time (fun () -> assemble 2) in
  let mats_equal x y =
    let rx = Linalg.Mat.raw x and ry = Linalg.Mat.raw y in
    let n = Bigarray.Array1.dim rx in
    assert (n = Bigarray.Array1.dim ry);
    let ok = ref true in
    for i = 0 to n - 1 do
      if Bigarray.Array1.unsafe_get rx i <> Bigarray.Array1.unsafe_get ry i then
        ok := false
    done;
    !ok
  in
  if not (mats_equal c1 c2) then begin
    pf "FAIL: Galerkin assembly differs between -j 1 and -j 2\n";
    exit 1
  end;
  pf "galerkin assemble n=%d: -j 1 %.3fs, -j 2 %.3fs — bit-identical\n"
    (Geometry.Mesh.size mesh) dt1 dt2;
  let netlist =
    Circuit.Generator.generate
      { Circuit.Generator.name = "smoke"; n_gates = 160; n_inputs = 12;
        n_outputs = 10; dff_fraction = 0.0; seed = 7 }
  in
  let setup = Ssta.Experiment.setup_circuit netlist in
  let proc = Ssta.Process.paper_default () in
  let a1s = Ssta.Algorithm1.prepare ~jobs:1 proc setup.Ssta.Experiment.locations in
  let sampler = Ssta.Algorithm1.sample_block a1s in
  let run jobs =
    Util.Timer.time (fun () ->
        Ssta.Experiment.run_mc ~jobs ~batch:64 setup ~sampler ~seed:opts.seed ~n:200)
  in
  let r1, mdt1 = run 1 in
  let r2, mdt2 = run 2 in
  let same =
    r1.Ssta.Experiment.worst_mean = r2.Ssta.Experiment.worst_mean
    && r1.Ssta.Experiment.worst_sigma = r2.Ssta.Experiment.worst_sigma
    && r1.Ssta.Experiment.endpoint_mean = r2.Ssta.Experiment.endpoint_mean
    && r1.Ssta.Experiment.endpoint_sigma = r2.Ssta.Experiment.endpoint_sigma
  in
  if not same then begin
    pf "FAIL: run_mc differs between -j 1 and -j 2\n";
    exit 1
  end;
  pf "run_mc %d gates x 200 samples: -j 1 %.3fs, -j 2 %.3fs — bit-identical\n"
    (Circuit.Netlist.logic_gate_count netlist) mdt1 mdt2;
  emit "smoke"
    ~stages:
      [ ("assemble_j1", dt1); ("assemble_j2", dt2); ("run_mc_j1", mdt1);
        ("run_mc_j2", mdt2) ]
    ~counters:(counters_since c0)
    ~mesh_n:(Geometry.Mesh.size mesh) ~samples:200
    ~wall_s:(dt1 +. dt2 +. mdt1 +. mdt2);
  pf "smoke OK\n"

(* ---------------------------------------------------------------- *)

(* load generator for the serving stack.

   Phase 1 (store): cold vs. warm prepare latency through the persistent
   model store — unchanged from the original serving bench.

   Phase 2 (wire/shard sweep): payload-heavy run_mc traffic (an inline
   bench circuit with many endpoints, [full] per-endpoint statistics in
   every response) swept over {json, binary} wire x {1, 2} shards x a
   rising concurrency ladder, reporting p50/p99/p999 latency and
   saturation throughput per configuration. The same fixed reference
   request is answered once per configuration and compared bit-for-bit:
   responses must be identical across wires and shard counts, or the
   bench exits non-zero. All in-process against Serve.Server /
   Serve.Router — the same engines bin/ssta_serve.exe exposes. *)
let serve_bench () =
  header "Serving: persistent KLE model store + concurrent analysis server";
  let module J = Serve.Jsonx in
  let c0 = Util.Trace.counters () in
  let store_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kle-serve-bench.%d" (Unix.getpid ()))
  in
  let config =
    {
      Serve.Server.default_config with
      Serve.Server.store_dir = Some store_dir;
      workers = 4;
      queue_capacity = 256;
      jobs = Some 1;
    }
  in
  let request id meth params =
    J.to_string
      (J.Obj
         [ ("id", J.Num (float_of_int id)); ("method", J.Str meth); ("params", J.Obj params) ])
  in
  let c880 = ("circuit", J.Obj [ ("name", J.Str "c880") ]) in
  let client_for server =
    Serve.Client.create
      ~policy:
        { Serve.Client.default_policy with Serve.Client.timeout_s = Some 600.0 }
      (Serve.Server.submit server)
  in
  let must_ok client line =
    match Serve.Client.call client line with
    | Ok payload -> J.to_string payload
    | Error f ->
        pf "FAIL: request %s -> %s\n" line (Serve.Client.failure_to_string f);
        exit 1
  in
  (* cold: fresh store, the prepare pays meshing + the KLE eigensolution *)
  let server = Serve.Server.create config in
  let client = client_for server in
  let prepare_line = request 0 "prepare" [ c880 ] in
  let _, cold_s = Util.Timer.time (fun () -> must_ok client prepare_line) in
  Serve.Server.drain server;
  (* warm: a fresh server (empty memory tier) over the now-populated store *)
  let server = Serve.Server.create config in
  let client = client_for server in
  let _, warm_s = Util.Timer.time (fun () -> must_ok client prepare_line) in
  pf "prepare c880: cold %.2fs, warm (store hit) %.4fs -> %.0fx faster\n" cold_s warm_s
    (cold_s /. warm_s);
  Serve.Server.drain server;
  emit "serve"
    ~params:[ ("circuit", Bench_json.String "c880") ]
    ~stages:[ ("prepare_cold", cold_s); ("prepare_warm", warm_s) ]
    ~counters:(counters_since c0)
    ~wall_s:(cold_s +. warm_s);
  (* ---- wire/shard sweep ------------------------------------------- *)
  (* a generated netlist with many endpoints, so [full] responses carry
     two per-endpoint float arrays — the payload-heavy shape the binary
     wire exists for *)
  let bench_text =
    let inputs = 8 and outputs = 96 in
    let b = Buffer.create 8192 in
    for i = 0 to inputs - 1 do
      Buffer.add_string b (Printf.sprintf "INPUT(i%d)\n" i)
    done;
    for o = 0 to outputs - 1 do
      Buffer.add_string b (Printf.sprintf "OUTPUT(o%d)\n" o)
    done;
    for o = 0 to outputs - 1 do
      Buffer.add_string b
        (Printf.sprintf "g%d = NAND(i%d, i%d)\n" o (o mod inputs)
           ((o + 1) mod inputs));
      Buffer.add_string b (Printf.sprintf "o%d = NOT(g%d)\n" o o)
    done;
    Buffer.contents b
  in
  (* the load spreads over several distinct model-spec keys so a multi-shard
     router actually fans out (one key would pin every request to its owning
     shard — shed-not-spread by design). The variants differ only by a
     comment line the parser strips, so every response stays bit-comparable
     to one reference while hashing to a different key *)
  let key_variants = 4 in
  let variant_text k =
    if k = 0 then bench_text else Printf.sprintf "%s# key variant %d\n" bench_text k
  in
  let n_mc = 64 in
  let mc_request ~id ~variant ~seed =
    {
      Serve.Protocol.id = J.Num (float_of_int id);
      req_id = None;
      deadline_ms = None;
      call =
        Serve.Protocol.Run_mc
          {
            circuit = Serve.Protocol.Bench_text (variant_text (variant mod key_variants));
            sampler = Serve.Protocol.Kle;
            r = None;
            seed;
            n = n_mc;
            batch = None;
            full = true;
          };
    }
  in
  (* the sweep's serving config: a coarse mesh (the serving layers under
     test are wire and routing — not the eigensolver), shared store *)
  let sweep_config =
    {
      config with
      Serve.Server.kle =
        { Ssta.Algorithm2.paper_config with Ssta.Algorithm2.max_area_fraction = 0.05 };
      workers = 2;
    }
  in
  let payload_bits payload =
    let num key =
      Option.map Int64.bits_of_float (Option.bind (J.member key payload) J.as_num)
    in
    let arr key =
      match J.member key payload with
      | Some (J.List items) ->
          List.map
            (function J.Num f -> Int64.bits_of_float f | _ -> Int64.minus_one)
            items
      | _ -> []
    in
    (num "worst_mean", num "worst_sigma", arr "endpoint_mean", arr "endpoint_sigma")
  in
  let reference = ref None in
  let saturation = ref [] in
  List.iter
    (fun (wire_name, wire, shards) ->
      (* fresh servers per configuration (clean memory tiers); the store
         stays warm after the first configuration's first request *)
      let servers, submit, shutdown =
        if shards = 1 then begin
          let server = Serve.Server.create sweep_config in
          ( [ server ],
            (fun ~wire payload ~reply ->
              Serve.Server.submit_wire server ~wire payload ~reply),
            fun () -> Serve.Server.drain server )
        end
        else begin
          let servers = List.init shards (fun _ -> Serve.Server.create sweep_config) in
          let backends =
            List.mapi
              (fun i s ->
                Serve.Router.backend_of_server
                  ~describe:(Printf.sprintf "shard-%d" i) s)
              servers
          in
          let router = Serve.Router.create backends in
          ( servers,
            (fun ~wire payload ~reply -> Serve.Router.submit router ~wire payload ~reply),
            fun () -> List.iter Serve.Server.drain servers )
        end
      in
      (* server-side view of one sweep row: merge the named stage histogram
         across every shard's telemetry (the cross-shard merge the router's
         [metrics] method performs, done here directly) *)
      let server_stage_hist stage =
        let merged = Util.Histogram.create () in
        List.iter
          (fun s ->
            Util.Histogram.merge_into ~dst:merged
              (Serve.Telemetry.stage_histogram (Serve.Server.telemetry s) stage))
          servers;
        merged
      in
      let server_total_hist () =
        let merged = Util.Histogram.create () in
        List.iter
          (fun s ->
            Util.Histogram.merge_into ~dst:merged
              (Serve.Telemetry.total_histogram (Serve.Server.telemetry s)))
          servers;
        merged
      in
      let hist_quantile_s h p = float_of_int (Util.Histogram.quantile h p) /. 1e9 in
      (* a client transport carries a whole message: a JSON line, or a full
         binary frame whose header Server/Router.submit does not expect *)
      let transport message ~reply =
        match wire with
        | `Json -> submit ~wire:`Json message ~reply
        | `Binary -> (
            match Serve.Wire.unframe message with
            | Ok payload -> submit ~wire:`Binary payload ~reply
            | Error _ -> pf "FAIL: client emitted an unframeable request\n"; exit 1)
      in
      let client =
        Serve.Client.create
          ~policy:
            { Serve.Client.default_policy with Serve.Client.timeout_s = Some 600.0 }
          ~wire transport
      in
      (* warm every key variant (cache tiers, sampler artifacts), then take a
         bit-identity reference probe per key: all variants, wires and shard
         counts must agree on every bit *)
      for variant = 0 to key_variants - 1 do
        (match
           Serve.Client.call_request client (mc_request ~id:variant ~variant ~seed:opts.seed)
         with
        | Ok _ -> ()
        | Error f ->
            pf "FAIL: warmup (%s, %d shard%s): %s\n" wire_name shards
              (if shards = 1 then "" else "s")
              (Serve.Client.failure_to_string f);
            exit 1);
        match
          Serve.Client.call_request client
            (mc_request ~id:(100 + variant) ~variant ~seed:(opts.seed + 777))
        with
        | Error f ->
            pf "FAIL: reference probe: %s\n" (Serve.Client.failure_to_string f);
            exit 1
        | Ok payload -> (
            let bits = payload_bits payload in
            match !reference with
            | None -> reference := Some bits
            | Some want when want = bits -> ()
            | Some _ ->
                pf
                  "FAIL: WRONG RESULT — response over %s wire with %d shard(s) (key \
                   variant %d) is not bit-identical to the reference\n"
                  wire_name shards variant;
                exit 1)
      done;
      let best_rps = ref 0.0 in
      List.iter
        (fun concurrency ->
          let n_requests = 8 * concurrency in
          (* each row starts from clean server-side histograms, so the
             scraped quantiles describe exactly this row's requests *)
          List.iter (fun s -> Serve.Telemetry.reset (Serve.Server.telemetry s)) servers;
          let failures = Atomic.make 0 in
          let latencies = Array.make n_requests nan in
          let t_all = Util.Timer.start () in
          let submitter tid =
            let i = ref tid in
            while !i < n_requests do
              let idx = !i in
              let timer = Util.Timer.start () in
              (match
                 Serve.Client.call_request client
                   (mc_request ~id:(idx + 200) ~variant:idx ~seed:(opts.seed + idx))
               with
              | Ok _ -> ()
              | Error _ -> Atomic.incr failures);
              latencies.(idx) <- Util.Timer.elapsed_s timer;
              i := !i + concurrency
            done
          in
          let threads = List.init concurrency (fun tid -> Thread.create submitter tid) in
          List.iter Thread.join threads;
          let total_s = Util.Timer.elapsed_s t_all in
          if Atomic.get failures > 0 then begin
            pf "FAIL: %d serve requests errored (%s wire, %d shard(s), concurrency %d)\n"
              (Atomic.get failures) wire_name shards concurrency;
            exit 1
          end;
          let sorted = Array.copy latencies in
          Array.sort Float.compare sorted;
          let pct p =
            let n = Array.length sorted in
            sorted.(max 0
                      (min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1)))
          in
          let rps = float_of_int n_requests /. total_s in
          if rps > !best_rps then best_rps := rps;
          (* scrape the server-side histograms for this row and compare with
             the client-observed latencies: the delta is time spent outside
             the server proper (client queueing, wire encode/decode) *)
          let total_h = server_total_hist () in
          let queue_h = server_stage_hist Serve.Telemetry.Queue_wait in
          let srv_p50 = hist_quantile_s total_h 0.5 in
          let srv_p99 = hist_quantile_s total_h 0.99 in
          pf
            "%-6s wire, %d shard(s), concurrency %2d: %3d reqs in %6.2fs — %6.1f req/s, \
             p50 %.4fs p99 %.4fs p99.9 %.4fs\n"
            wire_name shards concurrency n_requests total_s rps (pct 50.) (pct 99.)
            (pct 99.9);
          pf
            "       server-side: p50 %.4fs p99 %.4fs, queue_wait p99 %.4fs, \
             client-server delta p50 %+.4fs\n"
            srv_p50 srv_p99
            (hist_quantile_s queue_h 0.99)
            (pct 50. -. srv_p50);
          emit "serve-load"
            ~params:
              [ ("wire", Bench_json.String wire_name);
                ("shards", Bench_json.Int shards);
                ("concurrency", Bench_json.Int concurrency);
                ("requests", Bench_json.Int n_requests);
                ("endpoints", Bench_json.Int 96);
                ("key_variants", Bench_json.Int key_variants) ]
            ~stages:
              [ ("latency_p50", pct 50.); ("latency_p90", pct 90.);
                ("latency_p99", pct 99.); ("latency_p999", pct 99.9);
                ("server_p50", srv_p50); ("server_p99", srv_p99);
                ("server_queue_wait_p99", hist_quantile_s queue_h 0.99);
                ("client_server_delta_p50", pct 50. -. srv_p50);
                ("throughput_rps", rps) ]
            ~samples:n_mc ~wall_s:total_s)
        [ 1; 4; 12 ];
      saturation := (wire_name, shards, !best_rps) :: !saturation;
      shutdown ())
    [ ("json", `Json, 1); ("binary", `Binary, 1); ("json", `Json, 2); ("binary", `Binary, 2) ];
  List.iter
    (fun (wire_name, shards, rps) ->
      pf "saturation: %s wire, %d shard(s): %.1f req/s\n" wire_name shards rps;
      emit_meta "serve-saturation"
        ~params:
          [ ("wire", Bench_json.String wire_name);
            ("shards", Bench_json.Int shards);
            ("throughput_rps", Bench_json.Float rps) ])
    (List.rev !saturation);
  (* telemetry overhead: the same steady-state load with recording on vs.
     off (histograms, ring admission and counters all gated by one flag);
     the design target is under 2% of throughput *)
  let overhead_rps enabled =
    let server = Serve.Server.create sweep_config in
    Serve.Telemetry.set_enabled (Serve.Server.telemetry server) enabled;
    let client =
      Serve.Client.create
        ~policy:
          { Serve.Client.default_policy with Serve.Client.timeout_s = Some 600.0 }
        (Serve.Server.submit server)
    in
    (match
       Serve.Client.call_request client (mc_request ~id:900 ~variant:0 ~seed:opts.seed)
     with
    | Ok _ -> ()
    | Error f ->
        pf "FAIL: telemetry-overhead warmup: %s\n" (Serve.Client.failure_to_string f);
        exit 1);
    let concurrency = 4 in
    let n_requests = 8 * concurrency in
    let failures = Atomic.make 0 in
    let timer = Util.Timer.start () in
    let submitter tid =
      let i = ref tid in
      while !i < n_requests do
        (match
           Serve.Client.call_request client
             (mc_request ~id:(1000 + !i) ~variant:!i ~seed:(opts.seed + !i))
         with
        | Ok _ -> ()
        | Error _ -> Atomic.incr failures);
        i := !i + concurrency
      done
    in
    let threads = List.init concurrency (fun tid -> Thread.create submitter tid) in
    List.iter Thread.join threads;
    let total_s = Util.Timer.elapsed_s timer in
    Serve.Server.drain server;
    if Atomic.get failures > 0 then begin
      pf "FAIL: %d requests errored in the telemetry-overhead run\n"
        (Atomic.get failures);
      exit 1
    end;
    float_of_int n_requests /. total_s
  in
  (* a single pass per arm is noise-dominated (each request is ~15 ms of
     MC compute, so 32 requests resolve only coarse differences);
     alternate the arms across rounds and keep each arm's best pass, so a
     transient load spike cannot masquerade as telemetry overhead *)
  let rps_on = ref 0.0 and rps_off = ref 0.0 in
  for _ = 1 to 3 do
    rps_on := Float.max !rps_on (overhead_rps true);
    rps_off := Float.max !rps_off (overhead_rps false)
  done;
  let rps_on = !rps_on and rps_off = !rps_off in
  let overhead_pct = (rps_off -. rps_on) /. rps_off *. 100.0 in
  pf "telemetry overhead: %.1f req/s on vs %.1f req/s off (%+.2f%% of throughput)\n"
    rps_on rps_off overhead_pct;
  emit_meta "serve-telemetry-overhead"
    ~params:
      [ ("rps_on", Bench_json.Float rps_on);
        ("rps_off", Bench_json.Float rps_off);
        ("overhead_pct", Bench_json.Float overhead_pct) ];
  pf "bit-identity: responses identical across both wires and shard counts\n";
  (* leave no bench droppings in TMPDIR *)
  (try
     Array.iter (fun f -> Sys.remove (Filename.concat store_dir f)) (Sys.readdir store_dir);
     Unix.rmdir store_dir
   with Sys_error _ | Unix.Unix_error _ -> ());
  pf "serve OK\n"

(* incremental hierarchical re-timing: cold full analysis vs a warm
   stitch-cache hit vs a one-gate edit that re-extracts exactly one block
   macro. Exits non-zero when the reuse counters are wrong — the bench
   doubles as a correctness gate for the dependency-aware cache. *)
let retime_bench ~quick () =
  header "Incremental re-timing: block macro-models + dependency-aware cache";
  let c0 = Util.Trace.counters () in
  let n_gates = if quick then 600 else 2400 in
  let n_blocks = 8 in
  let netlist =
    Circuit.Generator.generate
      { Circuit.Generator.name = "retime-bench"; n_gates; n_inputs = 12;
        n_outputs = 8; dff_fraction = 0.05; seed = opts.seed }
  in
  let setup = Ssta.Experiment.setup_circuit netlist in
  let kle_config =
    {
      Ssta.Algorithm2.paper_config with
      Ssta.Algorithm2.max_area_fraction = (if quick then 0.05 else 0.01);
    }
  in
  let a2, prep_s =
    Util.Timer.time (fun () ->
        Ssta.Algorithm2.prepare ~config:kle_config ?jobs:opts.jobs
          (Ssta.Process.paper_default ())
          setup.Ssta.Experiment.locations)
  in
  let models = Ssta.Algorithm2.models a2 in
  let model_key = "retime-bench" in
  let store_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kle-retime-bench.%d" (Unix.getpid ()))
  in
  let dg = Persist.Depgraph.create (Persist.Store.open_ ~dir:store_dir ()) in
  let retime setup =
    Hier.Engine.retime ~n_blocks ?jobs:opts.jobs ~cache:dg setup ~models ~model_key
  in
  let expect label got want =
    if got <> want then begin
      pf "FAIL: %s = %d, expected %d\n" label got want;
      exit 1
    end
  in
  let cold, cold_s = Util.Timer.time (fun () -> retime setup) in
  let nb = cold.Hier.Engine.n_blocks in
  expect "cold blocks_recomputed" cold.Hier.Engine.counters.Hier.Engine.blocks_recomputed nb;
  let warm, warm_s = Util.Timer.time (fun () -> retime setup) in
  expect "warm blocks_reused" warm.Hier.Engine.counters.Hier.Engine.blocks_reused nb;
  expect "warm blocks_recomputed" warm.Hier.Engine.counters.Hier.Engine.blocks_recomputed 0;
  (* one-gate kind swap within an equal-pin-capacitance pair, so exactly
     one block's content hash moves *)
  let edit =
    let found = ref None in
    Array.iter
      (fun g ->
        if !found = None then
          match g.Circuit.Netlist.kind with
          | Circuit.Gate.Nand2 ->
              found := Some { Hier.Edit.gate = g.Circuit.Netlist.id; kind = Circuit.Gate.Nor2 }
          | Circuit.Gate.Nor2 ->
              found := Some { Hier.Edit.gate = g.Circuit.Netlist.id; kind = Circuit.Gate.Nand2 }
          | _ -> ())
      netlist.Circuit.Netlist.gates;
    match !found with
    | Some e -> e
    | None ->
        pf "FAIL: no swappable gate in the generated netlist\n";
        exit 1
  in
  let edited_netlist =
    match Hier.Edit.apply netlist edit with
    | Ok nl -> nl
    | Error m ->
        pf "FAIL: edit rejected: %s\n" m;
        exit 1
  in
  let edited_setup = Ssta.Experiment.setup_circuit edited_netlist in
  let edited, edit_s = Util.Timer.time (fun () -> retime edited_setup) in
  expect "edit blocks_recomputed" edited.Hier.Engine.counters.Hier.Engine.blocks_recomputed 1;
  expect "edit blocks_reused" edited.Hier.Engine.counters.Hier.Engine.blocks_reused (nb - 1);
  (* the composed result stays faithful to a flat pass over the edit *)
  let flat = Ssta.Block_ssta.run edited_setup ~models in
  let e_mu, e_sigma = Hier.Engine.validate_against_flat edited ~flat in
  if e_mu > 1.0 || e_sigma > 10.0 then begin
    pf "FAIL: edited compose drifted from flat (e_mu %.3f%%, e_sigma %.3f%%)\n" e_mu e_sigma;
    exit 1
  end;
  pf "retime %d gates, %d blocks: cold %.3fs, warm (stitch hit) %.4fs, one-gate edit %.3fs\n"
    n_gates nb cold_s warm_s edit_s;
  pf "  edit recomputed %d/%d blocks; cold/edit %.1fx, cold/warm %.0fx; vs flat e_mu %.3f%% e_sigma %.3f%%\n"
    edited.Hier.Engine.counters.Hier.Engine.blocks_recomputed nb (cold_s /. edit_s)
    (cold_s /. warm_s) e_mu e_sigma;
  emit "retime"
    ~params:
      [ ("n_gates", Bench_json.Int n_gates);
        ("quick", Bench_json.Bool quick);
        ("cold_over_edit", Bench_json.Float (cold_s /. edit_s));
        ("cold_over_warm", Bench_json.Float (cold_s /. warm_s)) ]
    ~stages:
      [ ("prepare_models", prep_s); ("retime_cold", cold_s);
        ("retime_warm", warm_s); ("retime_edit", edit_s) ]
    ~counters:
      (counters_since c0
      @ [ ("n_blocks", nb);
          ("blocks_recomputed_cold", cold.Hier.Engine.counters.Hier.Engine.blocks_recomputed);
          ("blocks_reused_warm", warm.Hier.Engine.counters.Hier.Engine.blocks_reused);
          ("blocks_recomputed_edit", edited.Hier.Engine.counters.Hier.Engine.blocks_recomputed);
          ("blocks_reused_edit", edited.Hier.Engine.counters.Hier.Engine.blocks_reused) ])
    ~r:(Ssta.Algorithm2.r a2)
    ~wall_s:(prep_s +. cold_s +. warm_s +. edit_s);
  (try
     Array.iter (fun f -> Sys.remove (Filename.concat store_dir f)) (Sys.readdir store_dir);
     Unix.rmdir store_dir
   with Sys_error _ | Unix.Unix_error _ -> ());
  pf "retime OK\n"

(* fault-injection storm against the serving tier: worker crashes, store
   read errors, torn writes and latency, with the Chaos module's
   self-healing invariants asserted (zero wrong results, all failures
   typed, recovery to healthy). Exits non-zero on any violation. *)
let chaos_bench () =
  header "Chaos: fault-injected serving (supervision, store faults, recovery)";
  (* two storms with the same invariants: direct against one server, then
     through the consistent-hash router over two fault-injected shards
     (with shard-connection blackouts driving replica failover on top) *)
  let storm label cfg =
    let c0 = Util.Trace.counters () in
    let store_dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "kle-chaos-bench-%s.%d" label (Unix.getpid ()))
    in
    let report, wall_s =
      Util.Timer.time (fun () ->
          Serve.Chaos.run ~log:(fun s -> pf "%s\n" s) ~store_dir cfg)
    in
    pf "[%s] %s\n" label (Serve.Chaos.report_to_string report);
    emit
      (if cfg.Serve.Chaos.router_shards > 0 then "chaos-router" else "chaos")
      ~params:
        [ ("requests", Bench_json.Int report.Serve.Chaos.requests);
          ("workers", Bench_json.Int cfg.Serve.Chaos.workers);
          ("router_shards", Bench_json.Int cfg.Serve.Chaos.router_shards) ]
      ~counters:
        (counters_since c0
        @ List.map
            (fun f ->
              ("fault_" ^ f.Serve.Chaos.fault, f.Serve.Chaos.fired))
            report.Serve.Chaos.fault_counts
        @ [ ("worker_restarts", report.Serve.Chaos.worker_restarts);
            ("quarantined", report.Serve.Chaos.quarantined);
            ("typed_errors", report.Serve.Chaos.typed_errors) ])
      ~samples:cfg.Serve.Chaos.mc_samples ~wall_s;
    (try
       Array.iter (fun f -> Sys.remove (Filename.concat store_dir f)) (Sys.readdir store_dir);
       Unix.rmdir store_dir
     with Sys_error _ | Unix.Unix_error _ -> ());
    match Serve.Chaos.violations report with
    | [] -> pf "chaos (%s) OK\n" label
    | viols ->
        List.iter (fun v -> pf "CHAOS VIOLATION (%s): %s\n" label v) viols;
        exit 1
  in
  storm "direct" Serve.Chaos.default_config;
  storm "router"
    { Serve.Chaos.default_config with Serve.Chaos.router_shards = 2 };
  pf "chaos OK\n"

let all () =
  fig1 ();
  fig3a ();
  fig3b ();
  fig4 ();
  fig5 ();
  eigtime ();
  fig6a ();
  fig6b ();
  table1 ();
  ablate_quad ();
  ablate_mesh ();
  ablate_eig ();
  ablate_kernel ();
  ablate_recon ();
  ablate_basis ();
  ablate_qmc ();
  blocksta ();
  powergrid ();
  serve_bench ();
  micro ()

let usage () =
  pf
    "usage: main.exe [fig1|fig3a|fig3b|fig4|fig5|fig6a|fig6b|table1|eigtime|scale|\n\
    \                 ablate-quad|ablate-mesh|ablate-eig|ablate-kernel|ablate-recon|ablate-basis|\n\
    \                 serve|retime|chaos|smoke|micro|all]\n\
    \                [--samples N] [--table-samples N] [--max-gates N] [--full]\n\
    \                [--mesh-frac F] [--seed N] [-j N] [--json PATH]\n\
    \                [--trace PATH] [--metrics] [--quick]\n"

let () =
  let commands = ref [] in
  let rec parse = function
    | [] -> ()
    | "--samples" :: v :: rest ->
        opts.samples <- int_of_string v;
        parse rest
    | "--table-samples" :: v :: rest ->
        opts.table_samples <- int_of_string v;
        parse rest
    | "--max-gates" :: v :: rest ->
        opts.max_gates <- int_of_string v;
        parse rest
    | "--full" :: rest ->
        opts.full <- true;
        parse rest
    | "--mesh-frac" :: v :: rest ->
        opts.mesh_frac <- float_of_string v;
        parse rest
    | "--seed" :: v :: rest ->
        opts.seed <- int_of_string v;
        parse rest
    | ("-j" | "--jobs") :: v :: rest ->
        opts.jobs <- Some (int_of_string v);
        parse rest
    | "--json" :: v :: rest ->
        opts.json <- Some v;
        parse rest
    | "--trace" :: v :: rest ->
        opts.trace <- Some v;
        parse rest
    | "--metrics" :: rest ->
        opts.metrics <- true;
        parse rest
    | "--quick" :: rest ->
        opts.quick <- true;
        parse rest
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | cmd :: rest ->
        commands := cmd :: !commands;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* tracing also powers the --json counter columns, so any reporting flag
     turns it on; the fast no-reporting path stays a single branch *)
  if opts.json <> None || opts.trace <> None || opts.metrics then
    Util.Trace.enable ();
  let run = function
    | "fig1" -> fig1 ()
    | "fig3a" -> fig3a ()
    | "fig3b" -> fig3b ()
    | "fig4" -> fig4 ()
    | "fig5" -> fig5 ()
    | "fig6a" -> fig6a ()
    | "fig6b" -> fig6b ()
    | "table1" -> table1 ()
    | "eigtime" -> eigtime ()
    | "scale" -> scale ()
    | "ablate-quad" -> ablate_quad ()
    | "ablate-mesh" -> ablate_mesh ()
    | "ablate-eig" -> ablate_eig ()
    | "ablate-kernel" -> ablate_kernel ()
    | "ablate-recon" -> ablate_recon ()
    | "ablate-basis" -> ablate_basis ()
    | "blocksta" -> blocksta ()
    | "ablate-qmc" -> ablate_qmc ()
    | "powergrid" -> powergrid ()
    | "serve" -> serve_bench ()
    | "retime" -> retime_bench ~quick:opts.quick ()
    | "chaos" -> chaos_bench ()
    | "smoke" -> smoke ()
    | "micro" -> micro ()
    | "all" -> all ()
    | other ->
        pf "unknown subcommand %S\n" other;
        usage ();
        exit 2
  in
  (match List.rev !commands with [] -> all () | cmds -> List.iter run cmds);
  (match opts.json with
  | None -> ()
  | Some path ->
      let config =
        Bench_json.Meta
          {
            name = "config";
            params =
              [
                ("samples", Bench_json.Int opts.samples);
                ("table_samples", Bench_json.Int opts.table_samples);
                ("mesh_frac", Bench_json.Float opts.mesh_frac);
                ("seed", Bench_json.Int opts.seed);
                ("jobs", Bench_json.Int (effective_jobs ()));
                ( "argv",
                  Bench_json.String
                    (String.concat " " (List.tl (Array.to_list Sys.argv))) );
              ];
          }
      in
      let entries = config :: List.rev !json_records in
      Bench_json.write_file path entries;
      pf "wrote %d benchmark record(s) to %s\n" (List.length entries) path);
  (match opts.trace with
  | None -> ()
  | Some path ->
      Util.Trace.write_chrome_trace path;
      pf "wrote Chrome trace to %s (load in chrome://tracing or Perfetto)\n" path);
  if opts.metrics then print_string (Util.Trace.summary ())
