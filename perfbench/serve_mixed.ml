(* serve-mixed: an in-process [Serve.Server] with the default config over
   a store that is fresh for the run, its models prepared in set-up,
   driven closed-loop by two client threads: one on the JSON wire, one on
   the binary wire. Four requests in five are reads ([run_mc] on c880
   under the warm KLE model, each with its own seed); one in five is a
   write ([retime] on c880 with a distinct one-gate Nand2/Nor2 swap, which
   dirties one block, re-extracts it and persists a new macro and stitch).
   Serve, persist and hier do their work only in this workload.

   Writes use c880, not c3540: on a 2-core x86-64 VM one c3540 write takes
   about 1.4 s against 30 ms for a read, so writes would hold over 90 % of
   the server's time and a run would see a few requests a second; on c880
   reads and writes each hold about half of it. *)

open Common
module J = Util.Jsonx

let circuit = "c880"

let mc_samples = 64

(* every [write_every]-th request is a retime *)
let write_every = 5

type inputs = {
  seed : int;
  text : string;  (** the seeded circuit as [.bench] text, sent inline *)
  netlist : Circuit.Netlist.t;  (** the same text as the server parses it *)
  edits : Hier.Edit.t array;  (** every Nand2/Nor2 swap of [netlist], in seeded order *)
}

let make_inputs ~seed =
  let spec = Circuit.Generator.paper_spec circuit in
  let text =
    Circuit.Bench_format.print
      (Circuit.Generator.generate
         { spec with Circuit.Generator.seed = derive seed "serve-mixed/circuit" })
  in
  let netlist =
    match Circuit.Bench_format.parse ~name:"inline" text with
    | Ok netlist -> netlist
    | Error msg -> failwith ("generated netlist does not parse: " ^ msg)
  in
  let edits =
    Array.of_list
      (List.filter_map
         (fun (g : Circuit.Netlist.gate) ->
           match g.Circuit.Netlist.kind with
           | Circuit.Gate.Nand2 -> Some { Hier.Edit.gate = g.Circuit.Netlist.id; kind = Circuit.Gate.Nor2 }
           | Circuit.Gate.Nor2 -> Some { Hier.Edit.gate = g.Circuit.Netlist.id; kind = Circuit.Gate.Nand2 }
           | _ -> None)
         (Array.to_list netlist.Circuit.Netlist.gates))
  in
  let rng = Random.State.make [| derive seed "serve-mixed/edits" |] in
  for i = Array.length edits - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = edits.(i) in
    edits.(i) <- edits.(j);
    edits.(j) <- t
  done;
  { seed; text; netlist; edits }

(* ---- requests ---- *)

let request i call = { Serve.Protocol.id = J.Num (float_of_int i); req_id = None; deadline_ms = None; call }

let mc_seed inputs i = derive inputs.seed ("serve-mixed/mc", i)

let mc_request inputs i =
  request i
    (Serve.Protocol.Run_mc
       {
         circuit = Serve.Protocol.Bench_text inputs.text;
         sampler = Serve.Protocol.Kle;
         r = None;
         seed = mc_seed inputs i;
         n = mc_samples;
         batch = None;
         full = false;
       })

let retime_request inputs i edit =
  request i
    (Serve.Protocol.Retime
       {
         circuit = Serve.Protocol.Bench_text inputs.text;
         r = None;
         n_blocks = None;
         edit =
           Option.map
             (fun (e : Hier.Edit.t) ->
               { Serve.Protocol.gate = e.Hier.Edit.gate; kind = Hier.Edit.kind_to_string e.Hier.Edit.kind })
             edit;
       })

(* request [i] of the stream: a write every [write_every], a read otherwise;
   the j-th write uses the j-th edit (a repeat once the list is used up) *)
let nth_request inputs i =
  if i mod write_every = write_every - 1 then
    let j = i / write_every in
    let n = Array.length inputs.edits in
    (`Retime (j mod n, j >= n), retime_request inputs i (Some inputs.edits.(j mod n)))
  else (`Mc, mc_request inputs i)

(* ---- the server ---- *)

type env = { server : Serve.Server.t; store_dir : string; json : Serve.Client.t; binary : Serve.Client.t }

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

(* stores live under the build directory of the checkout *)
let store_root = Filename.concat ".bench_build" "perfbench-serve"

let policy = { Serve.Client.default_policy with Serve.Client.timeout_s = Some 120.0; max_attempts = 1 }

let num key payload = Option.bind (J.member key payload) J.as_num

let num_exn key payload =
  match num key payload with Some v -> v | None -> failwith ("reply has no number " ^ key)

let call_ok client req =
  match Serve.Client.call_request client req with
  | Ok payload -> payload
  | Error f -> failwith (Serve.Client.failure_to_string f)

(* A server over [store_dir] with the KLE models prepared, the circuit
   warm and its blocks extracted. *)
let start inputs store_dir =
  let server =
    Serve.Server.create { Serve.Server.default_config with Serve.Server.store_dir = Some store_dir }
  in
  let json = Serve.Client.create ~policy ~wire:`Json (Serve.Server.submit server) in
  let binary =
    Serve.Client.create ~policy ~wire:`Binary (fun message ~reply ->
        match Serve.Wire.unframe message with
        | Ok payload -> Serve.Server.submit_wire server ~wire:`Binary payload ~reply
        | Error _ -> failwith "client sent an unframeable request")
  in
  let circuit = Serve.Protocol.Bench_text inputs.text in
  ignore (call_ok json (request (-1) (Serve.Protocol.Prepare { circuit; r = None })));
  ignore (call_ok binary (mc_request inputs (-2)));
  ignore (call_ok json (retime_request inputs (-3) None));
  { server; store_dir; json; binary }

let stop env = Serve.Server.drain env.server

let setups = 5

(* The first server starts from a fresh store and pays the cold KLE
   eigensolve (the one paper-cold times, here at the server's default of
   one domain). [setups] restarts follow, each a new server over that
   store; their times are the set-up times, and the last one serves the
   traffic. Returns the cold start's time too.

   A full major collection between phases, outside the timings, clears
   the garbage of the previous phase, so that it does not pile up into
   the run's peak RSS. *)
let setup inputs =
  let store_dir =
    Filename.concat store_root (Printf.sprintf "store-%d" (Unix.getpid ()))
  in
  remove_tree store_dir;
  mkdir_p store_dir;
  let cold, cold_s = time (fun () -> start inputs store_dir) in
  let env = ref cold and times = ref [] in
  for _ = 1 to setups do
    stop !env;
    Gc.full_major ();
    let e, dt = time (fun () -> start inputs store_dir) in
    env := e;
    times := dt :: !times
  done;
  Gc.full_major ();
  (!env, List.rev !times, cold_s)

(* ---- traffic ---- *)

type reply = {
  index : int;
  kind : [ `Mc | `Retime of int * bool ];  (** edit index, and whether it repeats *)
  latency_s : float;
  result : (J.t, Serve.Client.failure) result;
}

(* Closed loop: each client sends its next request when the previous one
   has been answered, until [seconds] have passed. Returns the replies in
   request order, the window's wall time and the next request index. *)
let traffic env inputs ~first ~seconds =
  let next = Atomic.make first in
  let t0 = now_s () in
  let client_loop client out =
    let rec loop acc =
      let i = Atomic.fetch_and_add next 1 in
      if now_s () -. t0 >= seconds then acc
      else begin
        let kind, req = nth_request inputs i in
        let t = now_s () in
        let result = Serve.Client.call_request client req in
        loop ({ index = i; kind; latency_s = now_s () -. t; result } :: acc)
      end
    in
    out := loop []
  in
  let a = ref [] and b = ref [] in
  let threads =
    [ Thread.create (client_loop env.json) a; Thread.create (client_loop env.binary) b ]
  in
  List.iter Thread.join threads;
  let elapsed = now_s () -. t0 in
  let replies = List.sort (fun x y -> Int.compare x.index y.index) (!a @ !b) in
  (replies, elapsed, Atomic.get next)

(* ---- checks ---- *)

(* What the checks compare against: the server's models rebuilt directly,
   and the circuit set up as the server sets it up. *)
type reference = { models : Kle.Model.t array; setup : Ssta.Experiment.circuit_setup }

let placement_seed = Serve.Server.default_config.Serve.Server.placement_seed

let reference inputs =
  let process = Ssta.Process.paper_default () in
  let model = Table1.build_model process in
  {
    models = Array.map (fun _ -> model) process.Ssta.Process.parameters;
    setup = Ssta.Experiment.setup_circuit ~placement_seed inputs.netlist;
  }

let direct_mc reference inputs i =
  let samplers =
    Array.map
      (fun m -> Kle.Sampler.create m reference.setup.Ssta.Experiment.locations)
      reference.models
  in
  let sampler rng ~n = Array.map (fun s -> Kle.Sampler.sample_matrix s rng ~n) samplers in
  Ssta.Experiment.run_mc ~jobs reference.setup ~sampler ~seed:(mc_seed inputs i) ~n:mc_samples

(* Flat single-pass analysis of one edit: the retime-vs-flat tolerance of
   the incremental engine is 1 % on the mean and 10 % on sigma. *)
let flat_of_edit reference inputs (edit : Hier.Edit.t) =
  match Hier.Edit.apply inputs.netlist edit with
  | Error msg -> failwith msg
  | Ok netlist ->
      let setup, setup_s =
        time (fun () -> Ssta.Experiment.setup_circuit ~placement_seed netlist)
      in
      (Ssta.Block_ssta.run setup ~models:reference.models, setup_s)

let mc_checked = 8

let flat_checked = 3

(* Every reply must be error-free; every new edit must recompute exactly
   one block (a repeated one none); sampled reads must equal a direct run
   bit for bit and sampled writes a flat analysis within tolerance. Returns
   the set-up times of the edited circuits that were checked. *)
let check_replies c reference inputs replies =
  let mc_seen = ref 0 and flat_seen = ref 0 and edit_setups = ref [] in
  List.iter
    (fun r ->
      ignore
        (operation c (fun () ->
             match r.result with
             | Error f ->
                 fail_check c "request %d failed: %s" r.index (Serve.Client.failure_to_string f)
             | Ok payload -> (
                 match r.kind with
                 | `Mc ->
                     if !mc_seen < mc_checked && r.index mod 7 = 0 then begin
                       incr mc_seen;
                       let want = direct_mc reference inputs r.index in
                       check c
                         (same_bits (num_exn "worst_mean" payload) want.Ssta.Experiment.worst_mean
                         && same_bits (num_exn "worst_sigma" payload)
                              want.Ssta.Experiment.worst_sigma)
                         "run_mc %d differs from a direct Experiment.run_mc" r.index
                     end
                 | `Retime (e, repeat) ->
                     let recomputed = num_exn "blocks_recomputed" payload in
                     let want = if repeat then 0.0 else 1.0 in
                     check c (recomputed = want) "retime %d (edit %d) recomputed %g blocks, not %g"
                       r.index e recomputed want;
                     if !flat_seen < flat_checked && not repeat then begin
                       incr flat_seen;
                       let flat, setup_s = flat_of_edit reference inputs inputs.edits.(e) in
                       edit_setups := setup_s :: !edit_setups;
                       let mean = flat.Ssta.Block_ssta.worst.Ssta.Canonical.mean in
                       let sigma = Ssta.Canonical.sigma flat.Ssta.Block_ssta.worst in
                       let e_mu = 100.0 *. Float.abs (num_exn "worst_mean" payload -. mean) /. mean in
                       let e_sigma =
                         100.0 *. Float.abs (num_exn "worst_sigma" payload -. sigma) /. sigma
                       in
                       check c (e_mu <= 1.0 && e_sigma <= 10.0)
                         "retime %d drifted from the flat analysis (e_mu %.3f%%, e_sigma %.3f%%)"
                         r.index e_mu e_sigma
                     end))))
    replies;
  !edit_setups

let latencies ?kind replies =
  List.filter_map
    (fun r ->
      match (kind, r.kind) with
      | None, _ | Some `Mc, `Mc | Some `Retime, `Retime _ -> Some r.latency_s
      | _ -> None)
    replies

let with_server inputs f =
  let env, setup_times, cold_s = setup inputs in
  Fun.protect
    ~finally:(fun () ->
      stop env;
      remove_tree env.store_dir)
    (fun () -> f env setup_times cold_s)

let run ~seed ~seconds =
  let c = checks () in
  let inputs = make_inputs ~seed in
  let replies, elapsed, setup_times =
    with_server inputs (fun env setup_times _ ->
        let replies, elapsed, _ = traffic env inputs ~first:0 ~seconds in
        (replies, elapsed, setup_times))
  in
  Gc.full_major ();
  ignore (check_replies c (reference inputs) inputs replies);
  (c, setup_times, latencies replies, elapsed)

(* ---- the traced run ---- *)

let stats_num env path =
  let payload = Serve.Server.stats_payload env.server in
  let rec go p = function
    | [] -> J.as_num p
    | k :: rest -> Option.bind (J.member k p) (fun v -> go v rest)
  in
  Option.value ~default:0.0 (go payload path)

let stage_ms env stage q =
  float_of_int
    (Util.Histogram.quantile (Serve.Telemetry.stage_histogram (Serve.Server.telemetry env.server) stage) q)
  /. 1e6

let window_seconds = 4.0

(* One untraced window gives the serving numbers, a second one with
   tracing on gives the tracing overhead on the median request. *)
let per_layer ~seed =
  let c = checks () in
  let inputs = make_inputs ~seed in
  let metrics, replies =
    with_server inputs (fun env _ cold_s ->
        Serve.Telemetry.reset (Serve.Server.telemetry env.server);
        let hits () = stats_num env [ "cache_hits_mem" ] +. stats_num env [ "cache_hits_disk" ] in
        let misses () = stats_num env [ "cache_misses" ] in
        let h0 = hits () and m0 = misses () in
        let replies, elapsed, next =
          traffic env inputs ~first:0 ~seconds:window_seconds
        in
        let hits = hits () -. h0 and misses = misses () -. m0 in
        let server_total_p50 =
          float_of_int
            (Util.Histogram.quantile (Serve.Telemetry.total_histogram (Serve.Server.telemetry env.server)) 0.5)
          /. 1e6
        in
        let stages =
          [
            metric "serve.queue_wait_p99_ms" "ms" (stage_ms env Serve.Telemetry.Queue_wait 0.99);
            metric "serve.batch_wait_p50_ms" "ms" (stage_ms env Serve.Telemetry.Batch_wait 0.5);
            metric "serve.reply_write_p50_ms" "ms" (stage_ms env Serve.Telemetry.Reply_write 0.5);
            metric "serve.cache_lookup_p50_ms" "ms" (stage_ms env Serve.Telemetry.Cache_lookup 0.5);
            metric "serve.compute_p50_ms" "ms" (stage_ms env Serve.Telemetry.Compute 0.5);
          ]
        in
        let oks = List.filter_map (fun r -> Result.to_option r.result |> Option.map (fun p -> (r, p))) replies in
        let field kind key =
          List.filter_map
            (fun (r, p) ->
              match (kind, r.kind) with
              | `Mc, `Mc | `Retime, `Retime _ -> num key p
              | _ -> None)
            oks
        in
        let reused = List.fold_left ( +. ) 0.0 (field `Retime "blocks_reused") in
        let recomputed = List.fold_left ( +. ) 0.0 (field `Retime "blocks_recomputed") in
        let p50 = median (latencies replies) in
        let traced_replies, _, _ =
          traced (fun () -> traffic env inputs ~first:next ~seconds:window_seconds)
        in
        let metrics =
          [
            metric "serve.cold_start_s" "s" cold_s;
            metric "serve.throughput_rps" "1/s" (float_of_int (List.length replies) /. elapsed);
            metric "mc_p50_ms" "ms" (1e3 *. median (latencies ~kind:`Mc replies));
            metric "retime_p50_ms" "ms" (1e3 *. median (latencies ~kind:`Retime replies));
            metric "serve.latency_p99_ms" "ms" (1e3 *. percentile 0.99 (latencies replies));
          ]
          @ stages
          @ [
              metric "serve.client_overhead_p50_ms" "ms" ((1e3 *. p50) -. server_total_p50);
              metric "serve.mc_sample_p50_ms" "ms" (1e3 *. median (field `Mc "sample_seconds"));
              metric "serve.mc_sta_p50_ms" "ms" (1e3 *. median (field `Mc "sta_seconds"));
              metric "serve.cache_hit_ratio" "ratio" (hits /. Float.max 1.0 (hits +. misses));
              metric "hier.analysis_p50_ms" "ms" (1e3 *. median (field `Retime "analysis_seconds"));
              metric "hier.blocks_recomputed" "count" recomputed;
              metric "hier.blocks_reused" "count" reused;
              metric "hier.reuse_ratio" "ratio" (reused /. Float.max 1.0 (reused +. recomputed));
              metric "persist.store_entries" "count" (stats_num env [ "store"; "entries" ]);
              metric "persist.store_bytes" "bytes" (stats_num env [ "store"; "bytes" ]);
              metric "trace.serve_overhead_p50_ms" "ms"
                (1e3 *. (median (latencies traced_replies) -. p50));
            ]
        in
        (metrics, replies @ traced_replies))
  in
  let edit_setups = check_replies c (reference inputs) inputs replies in
  (c, metrics @ [ metric "circuit.edit_setup_p50_ms" "ms" (1e3 *. median edit_setups) ])
