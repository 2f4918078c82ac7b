(* table1: the paper's Table 1 over c880, c1355, c1908 and c3540. Each
   circuit gets an Algorithm 1 reference (covariance, Cholesky, sampling)
   and an Algorithm 2 run against one KLE model shared by all circuits and
   built in set-up, as the paper reports eigentime separately. Cholesky,
   the correlated-normal sampler, the KLE expansion and STA do all the
   timed work; the eigensolve does none. *)

open Common

let circuits = [ "c880"; "c1355"; "c1908"; "c3540" ]

let n_samples = 200

type row = {
  name : string;
  setup : Ssta.Experiment.circuit_setup;
  ref_seed : int;
  kle_seed : int;
}

type inputs = {
  rows : row list;
  process : Ssta.Process.t;
  model : Kle.Model.t;
  circuit_setup_s : float;  (** placing and preparing the four circuits *)
}

(* The paper's KLE model: mesh, leading 200 Galerkin pairs, automatic r. *)
let build_model ?(jobs = jobs) (process : Ssta.Process.t) =
  let cfg = Ssta.Algorithm2.paper_config in
  let mesh =
    (Geometry.Refine.mesh Geometry.Rect.unit_die
       ~max_area_fraction:cfg.Ssta.Algorithm2.max_area_fraction
       ~min_angle_deg:cfg.Ssta.Algorithm2.min_angle_deg)
      .Geometry.Geometry_intf.mesh
  in
  let solver = Kle.Galerkin.Lanczos { count = cfg.Ssta.Algorithm2.computed_pairs } in
  let kernel = process.Ssta.Process.parameters.(0).Ssta.Process.kernel in
  let solution = Kle.Galerkin.solve ~mode:cfg.Ssta.Algorithm2.mode ~solver ~jobs mesh kernel in
  Kle.Model.create ?r:cfg.Ssta.Algorithm2.r solution

let setup ~seed =
  let process = Ssta.Process.paper_default () in
  let rows, circuit_setup_s =
    time (fun () ->
        List.map
          (fun name ->
            let spec = Circuit.Generator.paper_spec name in
            let netlist =
              Circuit.Generator.generate
                { spec with Circuit.Generator.seed = derive seed ("table1/circuit", name) }
            in
            {
              name;
              setup = Ssta.Experiment.setup_circuit netlist;
              ref_seed = derive seed ("table1/ref", name);
              kle_seed = derive seed ("table1/kle", name);
            })
          circuits)
  in
  { rows; process; model = build_model process; circuit_setup_s }

(* Algorithm 1 on one circuit: returns the result, the covariance +
   Cholesky probe and the Monte Carlo probe, and the prepared sampler. *)
let reference_run ?(jobs = jobs) inputs row =
  let a1, prepare =
    measure (fun () ->
        Ssta.Algorithm1.prepare ~jobs inputs.process row.setup.Ssta.Experiment.locations)
  in
  let sampler = Ssta.Algorithm1.sample_block a1 in
  let mc, run =
    measure (fun () ->
        Ssta.Experiment.run_mc ~jobs row.setup ~sampler ~seed:row.ref_seed ~n:n_samples)
  in
  (mc, prepare, run, sampler)

(* Algorithm 2 on one circuit against the shared model: one expansion
   matrix for the circuit, four independent parameter draws per batch. *)
let kle_run ?(jobs = jobs) inputs row =
  let s, create =
    measure (fun () -> Kle.Sampler.create inputs.model row.setup.Ssta.Experiment.locations)
  in
  let sampler rng ~n = Array.init 4 (fun _ -> Kle.Sampler.sample_matrix s rng ~n) in
  let mc, run =
    measure (fun () ->
        Ssta.Experiment.run_mc ~jobs row.setup ~sampler ~seed:row.kle_seed ~n:n_samples)
  in
  (mc, create, run, sampler)

let result_bits (m : Ssta.Experiment.mc_result) =
  (Int64.bits_of_float m.Ssta.Experiment.worst_mean, Int64.bits_of_float m.Ssta.Experiment.worst_sigma)

(* One Table 1 row: both algorithms, e_mu/e_sigma within paper-plus-noise
   bounds, and the same bits as the first pass. *)
let row_op c inputs firsts row =
  let reference, _, _, _ = reference_run inputs row in
  let candidate, _, _, _ = kle_run inputs row in
  check_mc_agreement c ~label:("table1 " ^ row.name) ~n:n_samples ~reference ~candidate;
  let bits = (result_bits reference, result_bits candidate) in
  match Hashtbl.find_opt firsts row.name with
  | None -> Hashtbl.replace firsts row.name bits
  | Some b0 -> check c (b0 = bits) "table1 %s: results differ between passes" row.name

let setups = 3

let run ~seed ~seconds =
  let c = checks () in
  let inputs, setup_times = repeat_setup setups (fun () -> setup ~seed) in
  let firsts = Hashtbl.create 4 in
  let latencies = ref [] in
  let t0 = now_s () in
  while now_s () -. t0 < seconds do
    let (), dt =
      time (fun () ->
          List.iter (fun row -> ignore (operation c (fun () -> row_op c inputs firsts row))) inputs.rows)
    in
    latencies := dt :: !latencies;
    Printf.eprintf "perfbench: table1 pass %d: %.3f s\n%!" (List.length !latencies) dt
  done;
  let elapsed = now_s () -. t0 in
  (c, setup_times, !latencies, elapsed)

(* The traced run: one untraced pass, then every reference run traced, then
   every KLE run traced, then both repeated at -j1. *)
let per_layer ~seed =
  let c = checks () in
  let inputs = setup ~seed in
  let untraced =
    List.map
      (fun row ->
        let reference, ref_prepare, ref_run, _ = reference_run inputs row in
        let candidate, kle_create, kle_run_p, _ = kle_run inputs row in
        check_mc_agreement c ~label:("table1 " ^ row.name) ~n:n_samples ~reference ~candidate;
        ( row,
          (reference, ref_prepare.wall_s +. ref_run.wall_s),
          (candidate, kle_create.wall_s +. kle_run_p.wall_s),
          ref_run.wall_s +. kle_run_p.wall_s ))
      inputs.rows
  in
  let total f = List.fold_left (fun acc x -> acc +. f x) 0.0 untraced in
  let ref_s = total (fun (_, (_, t), _, _) -> t) in
  let kle_s = total (fun (_, _, (_, t), _) -> t) in
  let run_mc_j2 = total (fun (_, _, _, t) -> t) in
  let samples = float_of_int (n_samples * List.length inputs.rows) in
  let same what (want : Ssta.Experiment.mc_result) got =
    check c (result_bits want = result_bits got) "table1 %s differs from the untraced run" what
  in
  let (ref_metrics, ref_run), ref_samplers =
    traced (fun () ->
        let runs =
          List.map
            (fun (row, (want, _), _, _) ->
              let mc, prepare, run, sampler = reference_run inputs row in
              same ("reference " ^ row.name) want mc;
              (prepare, run, (row, sampler)))
            untraced
        in
        let prepare = sum_probes (List.map (fun (p, _, _) -> p) runs) in
        let run = sum_probes (List.map (fun (_, r, _) -> r) runs) in
        ( ( [
              metric "ssta.alg1_prepare_s" "s" prepare.wall_s;
              metric "linalg.cholesky_s" "s" (span_s "cholesky.factor_jittered");
              metric "linalg.cholesky_jitter_retries" "count" (counter "cholesky_jitter_retries");
              metric "prng.ref_sample_s" "s" (span_s "mc.sample");
              metric "sta.ref_propagate_s" "s" (span_s "mc.sta");
              metric "ssta.ref_minor_words_per_sample" "words" (run.minor_words /. samples);
              metric "trace.table1_ref_overhead_s" "s" (prepare.wall_s +. run.wall_s -. ref_s);
            ],
            run ),
          List.map (fun (_, _, s) -> s) runs ))
  in
  let kle_metrics, kle_run_probe, kle_samplers =
    traced (fun () ->
        let runs =
          List.map
            (fun (row, _, (want, _), _) ->
              let mc, create, run, sampler = kle_run inputs row in
              same ("KLE " ^ row.name) want mc;
              (create, run, (row, sampler)))
            untraced
        in
        let create = sum_probes (List.map (fun (p, _, _) -> p) runs) in
        let run = sum_probes (List.map (fun (_, r, _) -> r) runs) in
        ( [
            metric "kle.sampler_create_s" "s" create.wall_s;
            metric "prng.kle_sample_s" "s" (span_s "mc.sample");
            metric "linalg.matmul_flops" "flop" (counter "matmul_flops");
            metric "sta.kle_propagate_s" "s" (span_s "mc.sta");
            metric "ssta.kle_minor_words_per_sample" "words" (run.minor_words /. samples);
            metric "trace.table1_kle_overhead_s" "s" (create.wall_s +. run.wall_s -. kle_s);
          ],
          run,
          List.map (fun (_, _, s) -> s) runs ))
  in
  let mc_probe = sum_probes [ ref_run; kle_run_probe ] in
  (* the same Monte Carlo calls at -j1: single-core rows stay comparable,
     and results must not depend on the number of domains *)
  let _, run_mc_j1 =
    time (fun () ->
        List.iter2
          (fun (row, (want_ref, _), (want_kle, _), _) ((_, ref_sampler), (_, kle_sampler)) ->
            same ("-j1 reference " ^ row.name) want_ref
              (Ssta.Experiment.run_mc ~jobs:1 row.setup ~sampler:ref_sampler ~seed:row.ref_seed
                 ~n:n_samples);
            same ("-j1 KLE " ^ row.name) want_kle
              (Ssta.Experiment.run_mc ~jobs:1 row.setup ~sampler:kle_sampler ~seed:row.kle_seed
                 ~n:n_samples))
          untraced
          (List.combine ref_samplers kle_samplers))
  in
  ( c,
    [ metric "ref_s" "s" ref_s; metric "kle_s" "s" kle_s ]
    @ ref_metrics @ kle_metrics
    @ [
        metric "ssta.run_mc_cpu_util" "cores" (cpu_util mc_probe);
        metric "ssta.run_mc_j2_s" "s" run_mc_j2;
        metric "ssta.run_mc_j1_s" "s" run_mc_j1;
        metric "circuit.setup_s" "s" inputs.circuit_setup_s;
      ] )
