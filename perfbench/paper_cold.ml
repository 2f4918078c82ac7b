(* paper-cold: the paper's flow on c880 from nothing, through
   [Ssta.Pipeline.run] with the paper's KLE configuration (mesh n ~ 1544,
   200 Lanczos pairs, automatic r), then KLE Monte Carlo. Nothing is
   cached between iterations, so meshing and the eigensolve do almost all
   the work. *)

open Common

let circuit = "c880"

(* Monte Carlo stays a small share of the flow (about 2 %). *)
let n_samples = 1000

let config = Ssta.Algorithm2.paper_config

type inputs = {
  netlist : Circuit.Netlist.t;
  process : Ssta.Process.t;
  mc_seed : int;
  reference : Ssta.Experiment.mc_result;  (** same-seed Algorithm 1 run *)
}

let unwrap what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Util.Diag.to_string e)

let setup ~seed =
  let spec = Circuit.Generator.paper_spec circuit in
  let netlist =
    Circuit.Generator.generate
      { spec with Circuit.Generator.seed = derive seed "paper-cold/circuit" }
  in
  let process = Ssta.Process.paper_default () in
  let mc_seed = derive seed "paper-cold/mc" in
  let p = Ssta.Pipeline.create ~jobs () in
  let _, reference =
    unwrap "Algorithm 1 reference"
      (Ssta.Pipeline.run p Ssta.Pipeline.Cholesky process netlist ~seed:mc_seed ~n:n_samples)
  in
  { netlist; process; mc_seed; reference }

let cold_flow ?(jobs = jobs) inputs =
  let p = Ssta.Pipeline.create ~jobs () in
  unwrap "cold flow"
    (Ssta.Pipeline.run p (Ssta.Pipeline.Kle config) inputs.process inputs.netlist
       ~seed:inputs.mc_seed ~n:n_samples)

(* Eigenvalues non-negative and descending, their sum within the Galerkin
   trace, and r chosen by the paper's truncation rule. *)
let check_model c (m : Kle.Model.t) =
  let sol = m.Kle.Model.solution in
  let ev = sol.Kle.Galerkin.eigenvalues in
  check c (Array.for_all (fun l -> l >= 0.0) ev) "negative eigenvalue";
  let descending = ref true in
  for i = 1 to Array.length ev - 1 do
    if ev.(i) > ev.(i - 1) then descending := false
  done;
  check c !descending "eigenvalues are not descending";
  let trace = Kle.Galerkin.trace sol.Kle.Galerkin.mesh sol.Kle.Galerkin.kernel in
  let sum = Array.fold_left ( +. ) 0.0 ev in
  check c (sum <= trace *. (1.0 +. 1e-9)) "eigenvalue sum %.6g exceeds the trace %.6g" sum trace;
  let rule = Kle.Model.choose_r ~n_total:(Geometry.Mesh.size sol.Kle.Galerkin.mesh) ev in
  check c (m.Kle.Model.r = rule) "r = %d but the paper's rule gives %d" m.Kle.Model.r rule

let models_of = function
  | Ssta.Pipeline.Kle_prepared a2 -> Ssta.Algorithm2.models a2
  | Ssta.Pipeline.Cholesky_prepared _ -> [||]

let check_flow c inputs ~first (prepared, (mc : Ssta.Experiment.mc_result)) =
  let models = models_of prepared in
  check c (Array.length models > 0) "the cold flow did not build a KLE model";
  Array.iter (check_model c) models;
  check_mc_agreement c ~label:"paper-cold KLE vs Algorithm 1" ~n:n_samples
    ~reference:inputs.reference ~candidate:mc;
  match first with
  | None -> ()
  | Some (m0 : Ssta.Experiment.mc_result) ->
      check c
        (same_bits m0.Ssta.Experiment.worst_mean mc.Ssta.Experiment.worst_mean
        && same_bits m0.Ssta.Experiment.worst_sigma mc.Ssta.Experiment.worst_sigma)
        "cold flow results differ between iterations"

let setups = 5

let run ~seed ~seconds =
  let c = checks () in
  let inputs, setup_times = repeat_setup setups (fun () -> setup ~seed) in
  let first = ref None in
  let latencies = ref [] in
  let t0 = now_s () in
  while now_s () -. t0 < seconds do
    ignore
      (operation c (fun () ->
           let result, dt = time (fun () -> cold_flow inputs) in
           latencies := dt :: !latencies;
           Printf.eprintf "perfbench: paper-cold flow %d: %.3f s\n%!" (List.length !latencies) dt;
           check_flow c inputs ~first:!first result;
           if !first = None then first := Some (snd result)))
  done;
  let elapsed = now_s () -. t0 in
  (c, setup_times, !latencies, elapsed)

(* The traced run: one untraced cold flow, then the same flow traced and
   split into its layers by calling them one at a time, then the KLE
   prepare again at -j1. *)
let per_layer ~seed =
  let c = checks () in
  let inputs = setup ~seed in
  let untraced, cold_flow_s = time (fun () -> cold_flow inputs) in
  check_flow c inputs ~first:None untraced;
  let p = Ssta.Pipeline.create ~jobs () in
  let traced_metrics =
    traced (fun () ->
        let (mesh, prepared, mc, layers), flow =
          measure (fun () ->
              let _, validate =
                measure (fun () ->
                    unwrap "validate" (Ssta.Pipeline.validate_process p inputs.process))
              in
              let setup, setup_p =
                measure (fun () -> unwrap "setup" (Ssta.Pipeline.setup_circuit p inputs.netlist))
              in
              let mesh, refine =
                measure (fun () ->
                    (Geometry.Refine.mesh Geometry.Rect.unit_die
                       ~max_area_fraction:config.Ssta.Algorithm2.max_area_fraction
                       ~min_angle_deg:config.Ssta.Algorithm2.min_angle_deg)
                      .Geometry.Geometry_intf.mesh)
              in
              let prepared, prepare =
                measure (fun () ->
                    unwrap "prepare"
                      (Ssta.Pipeline.prepare ~mesh p (Ssta.Pipeline.Kle config) inputs.process
                         setup))
              in
              let mc, run_mc =
                measure (fun () ->
                    unwrap "run_mc"
                      (Ssta.Pipeline.run_mc p setup prepared ~seed:inputs.mc_seed ~n:n_samples))
              in
              (mesh, prepared, mc, (validate, setup_p, refine, prepare, run_mc)))
        in
        let validate, setup_p, refine, prepare, run_mc = layers in
        check_flow c inputs ~first:(Some (snd untraced)) (prepared, mc);
        let r = match models_of prepared with [||] -> 0 | ms -> ms.(0).Kle.Model.r in
        (* every second of the flow that no named layer explains: glue
           between the calls, container self time, and untraced work *)
        let unattributed = flow.wall_s -. refine.wall_s -. attributed_s () in
        ( mesh,
          [
            metric "geometry.refine_s" "s" refine.wall_s;
            metric "geometry.triangles" "count" (float_of_int (Geometry.Mesh.size mesh));
            metric "kernels.validate_s" "s" validate.wall_s;
            metric "kernels.kernel_evals" "count" (counter "kernel_evals");
            metric "circuit.paper_cold_setup_s" "s" setup_p.wall_s;
            metric "kle.prepare_s" "s" prepare.wall_s;
            metric "kle.galerkin_solve_s" "s" (span_s "galerkin.solve");
            metric "kle.galerkin_assemble_s" "s" (span_s "galerkin.assemble");
            metric "kle.matvecs" "count" (counter "matvecs");
            metric "kle.r" "count" (float_of_int r);
            metric "kle.prepare_minor_words" "words" prepare.minor_words;
            metric "kle.prepare_cpu_util" "cores" (cpu_util prepare);
            metric "linalg.lanczos_extend_s" "s" (span_s "lanczos.extend");
            metric "linalg.lanczos_ritz_s" "s" (span_s "lanczos.ritz");
            metric "linalg.lanczos_iterations" "count" (counter "lanczos_iterations");
            metric "ssta.run_mc_s" "s" run_mc.wall_s;
            metric "unattributed_s" "s" unattributed;
            metric "trace.paper_cold_overhead_s" "s" (flow.wall_s -. cold_flow_s);
          ] ))
  in
  let mesh, metrics = traced_metrics in
  let p1 = Ssta.Pipeline.create ~jobs:1 () in
  let setup = unwrap "setup" (Ssta.Pipeline.setup_circuit p1 inputs.netlist) in
  let _, prepare_j1 =
    time (fun () ->
        unwrap "prepare -j1"
          (Ssta.Pipeline.prepare ~mesh p1 (Ssta.Pipeline.Kle config) inputs.process setup))
  in
  (c, (metric "cold_flow_s" "s" cold_flow_s :: metrics) @ [ metric "kle.prepare_j1_s" "s" prepare_j1 ])
