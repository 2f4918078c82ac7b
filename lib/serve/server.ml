type config = {
  store_dir : string option;
  cache_entries : int;
  queue_capacity : int;
  workers : int;
  jobs : int option;
  placement_seed : int;
  kle : Ssta.Algorithm2.config;
  drain_timeout_s : float option;
  store_io_faults : Util.Fault.io_plan list;
  chaos_crash : Util.Fault.io_plan option;
  chaos_crash_after : Util.Fault.io_plan option;
  slow_ms : float;
  slow_ring : int;
  request_log : (Jsonx.t -> unit) option;
}

let default_config =
  {
    store_dir = None;
    cache_entries = 32;
    queue_capacity = 64;
    workers = 2;
    jobs = Some 1;
    placement_seed = 1;
    kle = Ssta.Algorithm2.paper_config;
    drain_timeout_s = Some 30.0;
    store_io_faults = [];
    chaos_crash = None;
    chaos_crash_after = None;
    slow_ms = 0.0;
    slow_ring = 64;
    request_log = None;
  }

(* trace counters: per-request attribution when tracing is enabled; the
   always-on stats live in the [t] atomics below *)
let c_requests = Util.Trace.counter "serve_requests"
let c_errors = Util.Trace.counter "serve_errors"
let c_rejected = Util.Trace.counter "serve_rejected"
let c_deadline = Util.Trace.counter "serve_deadline_missed"
let c_hits_mem = Util.Trace.counter "serve_cache_hits_mem"
let c_hits_disk = Util.Trace.counter "serve_cache_hits_disk"
let c_misses = Util.Trace.counter "serve_cache_misses"
let c_worker_restarts = Util.Trace.counter "serve_worker_restarts"

type artifact =
  | A_setup of Ssta.Experiment.circuit_setup
  | A_model of Kle.Model.t
  | A_hmatrix of Kle.Hmatrix.t

(* per-connection response codec: a job answers on the wire it arrived on.
   [req_id] is the echoed correlation ID — [None] when the request carried
   none, keeping replies to old clients byte-identical *)
type rcodec = {
  rc_ok : id:Jsonx.t -> req_id:string option -> Jsonx.t -> string;
  rc_error : id:Jsonx.t -> req_id:string option -> Protocol.error_code -> string -> string;
  rc_reject : Protocol.reject -> string;
      (* decode rejects carry their own correlation and field attribution *)
}

let json_codec =
  {
    rc_ok = (fun ~id ~req_id payload -> Protocol.ok_response ~id ?req_id payload);
    rc_error = (fun ~id ~req_id code msg -> Protocol.error_response ~id ?req_id code msg);
    rc_reject =
      (fun rej ->
        Protocol.error_response ~id:rej.Protocol.reject_id ?req_id:rej.Protocol.reject_req_id
          ?field:rej.Protocol.field rej.Protocol.code rej.Protocol.message);
  }

let binary_codec =
  {
    rc_ok = (fun ~id ~req_id payload -> Wire.ok_response ~id ?req_id payload);
    rc_error = (fun ~id ~req_id code msg -> Wire.error_response ~id ?req_id code msg);
    rc_reject =
      (fun rej ->
        Wire.error_response ~id:rej.Protocol.reject_id ?req_id:rej.Protocol.reject_req_id
          rej.Protocol.code rej.Protocol.message);
  }

type job = {
  request : Protocol.request;
  reply : string -> unit;
  codec : rcodec;  (* response encoder for the wire the request arrived on *)
  deadline_ns : int option;  (* absolute, on the Util.Trace.now_ns clock *)
  replied : bool Atomic.t;  (* exactly-once reply guard *)
  attempts : int Atomic.t;  (* worker crashes this job has caused *)
  req_id : string;  (* effective correlation ID: client-sent or ingress-generated *)
  submitted_ns : int;  (* decoded at ingress, on the Util.Trace.now_ns clock *)
  mutable enqueued_ns : int;  (* admitted to the worker queue *)
  mutable reply_write_ns : int;  (* wall time spent inside [reply] *)
}

let echo_req_id job = job.request.Protocol.req_id

type t = {
  config : config;
  diag : Util.Diag.sink;
  store : Persist.Store.t option;
  (* dependency-aware view over [store] for the hierarchical retime cache;
     None when the server runs without a store (macros recomputed per call) *)
  depgraph : Persist.Depgraph.t option;
  cache : artifact Lru.t;
  queue : job Queue.t;  (* guarded by [lock] *)
  lock : Mutex.t;
  not_empty : Condition.t;
  (* single-flight: keys whose compute is running on some domain; a second
     requester for the same key waits on [inflight_done] instead of paying
     the eigensolve again *)
  inflight : (string, unit) Hashtbl.t;
  inflight_lock : Mutex.t;
  inflight_done : Condition.t;
  draining : bool Atomic.t;
  mutable joined : bool;
  mutable worker_handles : Supervisor.handle list;
  (* the joiner thread + its done flag, created once by the first timed
     drain so a retry after a timeout never double-joins a domain *)
  mutable joiner : (Thread.t * bool Atomic.t) option;
  shutdown_flag : bool Atomic.t;
  busy : int Atomic.t;  (* workers currently executing a job *)
  n_worker_restarts : int Atomic.t;
  n_quarantined : int Atomic.t;
  n_requests : int Atomic.t;
  n_errors : int Atomic.t;
  n_rejected : int Atomic.t;
  n_deadline : int Atomic.t;
  n_hits_mem : int Atomic.t;
  n_hits_disk : int Atomic.t;
  n_misses : int Atomic.t;
  n_recovered : int Atomic.t;
  n_singleflight : int Atomic.t;  (* misses answered by another domain's compute *)
  n_replies_dropped : int Atomic.t;  (* replies that raised mid-write (dead client) *)
  n_requeued : int Atomic.t;  (* jobs re-queued after a worker crash *)
  n_blocks_reused : int Atomic.t;  (* retime: block macros served from the cache *)
  n_blocks_recomputed : int Atomic.t;  (* retime: block macros extracted *)
  telemetry : Telemetry.t;
  instance : int;  (* ingress req_id namespace, unique per server *)
  req_seq : int Atomic.t;
}

let diagnostics t = t.diag
let telemetry t = t.telemetry

(* ---------------------------------------------------------------- *)
(* cached artifact resolution *)

type tier = Hit_mem | Hit_disk | Miss | Recovered

let tier_name = function
  | Hit_mem -> "hit-mem"
  | Hit_disk -> "hit-disk"
  | Miss -> "miss"
  | Recovered -> "recovered"

(* coldest tier wins when one request touches several artifacts *)
let tier_rank = function Miss -> 0 | Recovered -> 1 | Hit_disk -> 2 | Hit_mem -> 3
let coldest a b = if tier_rank a <= tier_rank b then a else b

let count_tier t tier =
  match tier with
  | Hit_mem ->
      Atomic.incr t.n_hits_mem;
      Util.Trace.incr c_hits_mem
  | Hit_disk ->
      Atomic.incr t.n_hits_disk;
      Util.Trace.incr c_hits_disk
  | Miss ->
      Atomic.incr t.n_misses;
      Util.Trace.incr c_misses
  | Recovered ->
      Atomic.incr t.n_recovered;
      Util.Trace.incr c_misses

(* Per-domain cache-stage clock: [cached] accumulates its wall time here so
   the worker can split a request's execution into cache_lookup vs compute.
   Only the outermost [cached] frame adds to [frame_ns] (a model compute
   that resolves a nested hmatrix artifact is not double-counted), and
   every leader's [compute] body adds to [exclude_ns]; the worker reads
   cache_lookup = frame_ns - exclude_ns, so an eigensolve behind a cache
   miss counts as compute, not as cache time. *)
type cache_clock = { mutable depth : int; mutable frame_ns : int; mutable exclude_ns : int }

let cache_clock_key = Domain.DLS.new_key (fun () -> { depth = 0; frame_ns = 0; exclude_ns = 0 })

let cache_clock_reset clk =
  clk.frame_ns <- 0;
  clk.exclude_ns <- 0

let cache_clock_read clk = max 0 (clk.frame_ns - clk.exclude_ns)

(* memory LRU over the optional disk store over [compute], with per-key
   single-flight: concurrent misses on the same key run [compute] once —
   the leader computes and fills the caches, followers block on
   [inflight_done] and pick the result up from the memory tier *)
let cached t (entity : 'a Persist.Entity.t) ~spec ~(inject : 'a -> artifact)
    ~(project : artifact -> 'a option) compute =
  let clk = Domain.DLS.get cache_clock_key in
  let compute () =
    let c0 = Util.Trace.now_ns () in
    Fun.protect
      ~finally:(fun () -> clk.exclude_ns <- clk.exclude_ns + (Util.Trace.now_ns () - c0))
      compute
  in
  let t0 = Util.Trace.now_ns () in
  clk.depth <- clk.depth + 1;
  Fun.protect
    ~finally:(fun () ->
      clk.depth <- clk.depth - 1;
      if clk.depth = 0 then clk.frame_ns <- clk.frame_ns + (Util.Trace.now_ns () - t0))
  @@ fun () ->
  let key = entity.Persist.Entity.kind ^ ":" ^ spec in
  let from_mem () = Option.bind (Lru.find t.cache key) project in
  match from_mem () with
  | Some v ->
      count_tier t Hit_mem;
      (v, Hit_mem)
  | None -> (
      let role =
        Mutex.protect t.inflight_lock (fun () ->
            let rec acquire () =
              if not (Hashtbl.mem t.inflight key) then begin
                Hashtbl.add t.inflight key ();
                `Lead
              end
              else begin
                Condition.wait t.inflight_done t.inflight_lock;
                (* the leader finished (or failed): take its result from the
                   memory tier, or become the new leader and recompute *)
                match from_mem () with Some v -> `Done v | None -> acquire ()
              end
            in
            acquire ())
      in
      match role with
      | `Done v ->
          (* a miss answered by another domain's in-flight compute *)
          Atomic.incr t.n_singleflight;
          count_tier t Hit_mem;
          (v, Hit_mem)
      | `Lead ->
          Fun.protect
            ~finally:(fun () ->
              Mutex.protect t.inflight_lock (fun () ->
                  Hashtbl.remove t.inflight key;
                  Condition.broadcast t.inflight_done))
            (fun () ->
              let v, tier =
                match t.store with
                | None -> (compute (), Miss)
                | Some store -> (
                    match Persist.Store.find_or_add store entity ~spec compute with
                    | v, `Hit -> (v, Hit_disk)
                    | v, `Miss -> (v, Miss)
                    | v, `Recovered -> (v, Recovered))
              in
              Lru.add t.cache key (inject v);
              count_tier t tier;
              (v, tier)))

let resolve_netlist circuit =
  match circuit with
  | Protocol.Named name -> (
      match Circuit.Generator.generate_paper name with
      | netlist -> Ok (netlist, Printf.sprintf "name=%s" name)
      | exception Not_found ->
          Error (Protocol.Netlist_error, Printf.sprintf "unknown circuit %S" name))
  | Protocol.Bench_text text -> (
      match Circuit.Bench_format.parse ~name:"inline" text with
      | Ok netlist -> Ok (netlist, "bench=" ^ Persist.Codec.fnv64_hex text)
      | Error msg -> Error (Protocol.Netlist_error, msg))

(* [edit] applies a one-gate kind swap before setup; the swap is folded
   into the cache token so the edited setup is content-addressed alongside
   (never instead of) the baseline one *)
let get_setup_edited t circuit edit =
  match resolve_netlist circuit with
  | Error _ as e -> e
  | Ok (netlist, token) -> (
      let edited =
        match edit with
        | None -> Ok (netlist, token)
        | Some { Protocol.gate; kind } -> (
            match Hier.Edit.kind_of_string kind with
            | Error msg -> Error (Protocol.Bad_params, msg)
            | Ok k -> (
                match Hier.Edit.apply netlist { Hier.Edit.gate; kind = k } with
                | Error msg -> Error (Protocol.Bad_params, msg)
                | Ok edited ->
                    Ok
                      ( edited,
                        Printf.sprintf "%s;edit=%d:%s" token gate
                          (String.lowercase_ascii kind) )))
      in
      match edited with
      | Error _ as e -> e
      | Ok (netlist, token) ->
          let spec =
            Printf.sprintf "circuit(%s,placement_seed=%d)" token t.config.placement_seed
          in
          Ok
            (cached t Persist.Entity.circuit_setup ~spec
               ~inject:(fun s -> A_setup s)
               ~project:(function A_setup s -> Some s | _ -> None)
               (fun () ->
                 Ssta.Experiment.setup_circuit ~placement_seed:t.config.placement_seed netlist)))

let get_setup t circuit = get_setup_edited t circuit None

let mode_name = function
  | Kle.Galerkin.Auto -> "auto"
  | Kle.Galerkin.Assembled -> "assembled"
  | Kle.Galerkin.Matrix_free -> "matrix-free"
  | Kle.Galerkin.Hierarchical -> "hierarchical"

let model_spec t kernel ~r =
  let cfg = t.config.kle in
  Printf.sprintf "kle-model(kernel=%s;die=unit;maf=%.17g;angle=%.17g;pairs=%d;mode=%s;r=%s)"
    (Persist.Entity.kernel_spec kernel)
    cfg.Ssta.Algorithm2.max_area_fraction cfg.Ssta.Algorithm2.min_angle_deg
    cfg.Ssta.Algorithm2.computed_pairs (mode_name cfg.Ssta.Algorithm2.mode)
    (match r with None -> "auto" | Some r -> string_of_int r)

let hmatrix_spec t kernel =
  let cfg = t.config.kle in
  let p = Kle.Hmatrix.default_params in
  Printf.sprintf
    "kle-hmatrix(kernel=%s;die=unit;maf=%.17g;angle=%.17g;tol=%.17g;eta=%.17g;leaf=%d;max_rank=%d)"
    (Persist.Entity.kernel_spec kernel)
    cfg.Ssta.Algorithm2.max_area_fraction cfg.Ssta.Algorithm2.min_angle_deg
    p.Kle.Hmatrix.tol p.Kle.Hmatrix.eta p.Kle.Hmatrix.leaf_size
    p.Kle.Hmatrix.max_rank

exception Hmatrix_failed of string

(* hierarchical-mode eigensolves reuse the cluster tree + ACA factors
   through the same cache tiers as every other artifact: a warm store (or
   memory hit) skips the O(n log n) entry evaluations of the build and goes
   straight to the Lanczos sweep. An ACA stall escapes as [Hmatrix_failed]
   and degrades to the flat matrix-free apply with a diagnostic, mirroring
   [Kle.Operator.galerkin]'s own fallback. *)
let hierarchical_solution t kernel mesh solver =
  match
    cached t Persist.Entity.hmatrix ~spec:(hmatrix_spec t kernel)
      ~inject:(fun h -> A_hmatrix h)
      ~project:(function A_hmatrix h -> Some h | _ -> None)
      (fun () ->
        match
          Kle.Operator.hmatrix_galerkin ~diag:t.diag ?jobs:t.config.jobs mesh
            kernel
        with
        | Ok h -> h
        | Error detail -> raise (Hmatrix_failed detail))
  with
  | h, _tier ->
      Kle.Galerkin.solve_with_operator ~solver ~diag:t.diag ?jobs:t.config.jobs
        ~op:(Kle.Operator.of_hmatrix ~diag:t.diag h) mesh kernel
  | exception Hmatrix_failed detail ->
      Util.Diag.record ~sink:t.diag Util.Diag.Warning `Degraded_fallback
        ~stage:"serve.model"
        (Printf.sprintf
           "hierarchical build failed: %s — solving with the flat apply" detail);
      Kle.Galerkin.solve ~mode:Kle.Galerkin.Matrix_free ~solver ~diag:t.diag
        ?jobs:t.config.jobs mesh kernel

(* mirrors Algorithm2.prepare: unit-die mesh, Lanczos unless the mesh is
   small, Model.create truncation — so a cached model is bit-identical to
   the uncached pipeline's *)
let compute_model t kernel ~r () =
  let cfg = t.config.kle in
  let mesh =
    (Geometry.Refine.mesh Geometry.Rect.unit_die
       ~max_area_fraction:cfg.Ssta.Algorithm2.max_area_fraction
       ~min_angle_deg:cfg.Ssta.Algorithm2.min_angle_deg)
      .Geometry.Geometry_intf.mesh
  in
  let solver =
    if cfg.Ssta.Algorithm2.computed_pairs >= Geometry.Mesh.size mesh then Kle.Galerkin.Dense
    else Kle.Galerkin.Lanczos { count = cfg.Ssta.Algorithm2.computed_pairs }
  in
  let solution =
    match (cfg.Ssta.Algorithm2.mode, solver) with
    | Kle.Galerkin.Hierarchical, Kle.Galerkin.Lanczos _ ->
        hierarchical_solution t kernel mesh solver
    | _ ->
        Kle.Galerkin.solve ~mode:cfg.Ssta.Algorithm2.mode ~solver ~diag:t.diag
          ?jobs:t.config.jobs mesh kernel
  in
  Kle.Model.create ?r solution

let get_model t kernel ~r =
  let spec = model_spec t kernel ~r in
  cached t Persist.Entity.model ~spec
    ~inject:(fun m -> A_model m)
    ~project:(function A_model m -> Some m | _ -> None)
    (compute_model t kernel ~r)

(* the model set's cache-key contribution for hierarchical macros: every
   parameter's full model spec, hashed to keep macro specs short. Any
   change that would alter a model (kernel, truncation, mesh config)
   changes this key and therefore every macro and stitched entry. *)
let models_key t process ~r =
  Persist.Codec.fnv64_hex
    (String.concat "|"
       (Array.to_list
          (Array.map
             (fun (p : Ssta.Process.parameter) -> model_spec t p.Ssta.Process.kernel ~r)
             process.Ssta.Process.parameters)))

(* one model per process parameter; same kernel spec -> same model (the
   first parameter computes, the rest hit the memory tier) *)
let get_models t process ~r =
  let tier = ref Hit_mem in
  let models =
    Array.map
      (fun (p : Ssta.Process.parameter) ->
        let m, tr = get_model t p.Ssta.Process.kernel ~r in
        tier := coldest !tier tr;
        m)
      process.Ssta.Process.parameters
  in
  (models, !tier)

(* ---------------------------------------------------------------- *)
(* request execution *)

exception Reject of Protocol.error_code * string

let process () = Ssta.Process.paper_default ()

let kle_samplers t models (setup : Ssta.Experiment.circuit_setup) =
  Array.map
    (fun m -> Kle.Sampler.create ~diag:t.diag m setup.Ssta.Experiment.locations)
    models

let mc_sampler_of t (setup : Ssta.Experiment.circuit_setup) kind ~r ~seed :
    Ssta.Experiment.sampler * float * tier =
  let timer = Util.Timer.start () in
  match (kind : Protocol.sampler_kind) with
  | Protocol.Cholesky ->
      let a1 = Ssta.Algorithm1.prepare ~diag:t.diag ?jobs:t.config.jobs (process ()) setup.Ssta.Experiment.locations in
      ((fun rng ~n -> Ssta.Algorithm1.sample_block a1 rng ~n), Util.Timer.elapsed_s timer, Miss)
  | Protocol.Kle ->
      let models, tier = get_models t (process ()) ~r in
      let samplers = kle_samplers t models setup in
      ( (fun rng ~n -> Array.map (fun s -> Kle.Sampler.sample_matrix s rng ~n) samplers),
        Util.Timer.elapsed_s timer,
        tier )
  | Protocol.Kle_qmc ->
      let models, tier = get_models t (process ()) ~r in
      let samplers = kle_samplers t models setup in
      (* stateful randomized-Halton sequences, one per parameter; run_mc
         calls the sampler batch by batch in order on one domain, so the
         sequence position advances deterministically *)
      let seqs =
        Array.mapi
          (fun i s ->
            Prng.Lowdisc.create
              ~shift_rng:(Prng.Rng.substream ~seed ~stream:(0x51C0 + i))
              ~dim:(Kle.Sampler.dim s) ())
          samplers
      in
      ( (fun _rng ~n ->
          Array.mapi
            (fun i s ->
              Kle.Sampler.sample_matrix_with s ~xi:(Prng.Lowdisc.normal_matrix seqs.(i) ~rows:n))
            samplers),
        Util.Timer.elapsed_s timer,
        tier )

let float_list a = Jsonx.List (Array.to_list (Array.map (fun v -> Jsonx.Num v) a))

let mc_payload ?(full = false) (mc : Ssta.Experiment.mc_result) =
  Jsonx.Obj
    ([
       ("n_samples", Jsonx.Num (float_of_int mc.Ssta.Experiment.n_samples));
       ("n_skipped", Jsonx.Num (float_of_int mc.Ssta.Experiment.n_skipped));
       ("worst_mean", Jsonx.Num mc.Ssta.Experiment.worst_mean);
       ("worst_sigma", Jsonx.Num mc.Ssta.Experiment.worst_sigma);
       ("endpoints", Jsonx.Num (float_of_int (Array.length mc.Ssta.Experiment.endpoint_mean)));
       ("sample_seconds", Jsonx.Num mc.Ssta.Experiment.sample_seconds);
       ("sta_seconds", Jsonx.Num mc.Ssta.Experiment.sta_seconds);
     ]
    @
    if full then
      [
        ("endpoint_mean", float_list mc.Ssta.Experiment.endpoint_mean);
        ("endpoint_sigma", float_list mc.Ssta.Experiment.endpoint_sigma);
      ]
    else [])

let lru_stats_payload (s : Lru.stats) =
  Jsonx.Obj
    [
      ("hits", Jsonx.Num (float_of_int s.Lru.hits));
      ("misses", Jsonx.Num (float_of_int s.Lru.misses));
      ("evictions", Jsonx.Num (float_of_int s.Lru.evictions));
      ("entries", Jsonx.Num (float_of_int s.Lru.entries));
    ]

let store_stats_payload store =
  let s = Persist.Store.stats store in
  Jsonx.Obj
    [
      ("dir", Jsonx.Str (Persist.Store.dir store));
      ("hits", Jsonx.Num (float_of_int s.Persist.Store.hits));
      ("misses", Jsonx.Num (float_of_int s.Persist.Store.misses));
      ("recovered", Jsonx.Num (float_of_int s.Persist.Store.recovered));
      ("writes", Jsonx.Num (float_of_int s.Persist.Store.writes));
      ("read_failures", Jsonx.Num (float_of_int s.Persist.Store.read_failures));
      ("entries", Jsonx.Num (float_of_int s.Persist.Store.entries));
      ("bytes", Jsonx.Num (float_of_int s.Persist.Store.bytes));
    ]

let stats_payload t =
  let queue_len = Mutex.protect t.lock (fun () -> Queue.length t.queue) in
  Jsonx.Obj
    ([
       ("requests", Jsonx.Num (float_of_int (Atomic.get t.n_requests)));
       ("errors", Jsonx.Num (float_of_int (Atomic.get t.n_errors)));
       ("rejected", Jsonx.Num (float_of_int (Atomic.get t.n_rejected)));
       ("deadline_missed", Jsonx.Num (float_of_int (Atomic.get t.n_deadline)));
       ("replies_dropped", Jsonx.Num (float_of_int (Atomic.get t.n_replies_dropped)));
       ("requeued", Jsonx.Num (float_of_int (Atomic.get t.n_requeued)));
       ("cache_hits_mem", Jsonx.Num (float_of_int (Atomic.get t.n_hits_mem)));
       ("cache_hits_disk", Jsonx.Num (float_of_int (Atomic.get t.n_hits_disk)));
       ("cache_misses", Jsonx.Num (float_of_int (Atomic.get t.n_misses)));
       ("cache_recovered", Jsonx.Num (float_of_int (Atomic.get t.n_recovered)));
       ("singleflight_dedup", Jsonx.Num (float_of_int (Atomic.get t.n_singleflight)));
       ("retime_blocks_reused", Jsonx.Num (float_of_int (Atomic.get t.n_blocks_reused)));
       ( "retime_blocks_recomputed",
         Jsonx.Num (float_of_int (Atomic.get t.n_blocks_recomputed)) );
       ("queue_length", Jsonx.Num (float_of_int queue_len));
       ("queue_capacity", Jsonx.Num (float_of_int t.config.queue_capacity));
       ("workers", Jsonx.Num (float_of_int t.config.workers));
       ("worker_restarts", Jsonx.Num (float_of_int (Atomic.get t.n_worker_restarts)));
       ("quarantined", Jsonx.Num (float_of_int (Atomic.get t.n_quarantined)));
       ("draining", Jsonx.Bool (Atomic.get t.draining));
       ("lru", lru_stats_payload (Lru.stats t.cache));
     ]
    @ match t.store with None -> [] | Some store -> [ ("store", store_stats_payload store) ])

(* the chaos harness's recovery probe: counters, queue state and a
   directory scan — explicit about what "healthy" means: accepting work
   and not draining. Idle recovery shows as workers_busy=0, queue_depth=0 *)
let health_payload t =
  let queue_depth = Mutex.protect t.lock (fun () -> Queue.length t.queue) in
  let draining = Atomic.get t.draining in
  Jsonx.Obj
    ([
       ("healthy", Jsonx.Bool (not draining));
       ("draining", Jsonx.Bool draining);
       ("workers", Jsonx.Num (float_of_int t.config.workers));
       ("workers_busy", Jsonx.Num (float_of_int (Atomic.get t.busy)));
       ("worker_restarts", Jsonx.Num (float_of_int (Atomic.get t.n_worker_restarts)));
       ("quarantined", Jsonx.Num (float_of_int (Atomic.get t.n_quarantined)));
       ("queue_depth", Jsonx.Num (float_of_int queue_depth));
       ("queue_capacity", Jsonx.Num (float_of_int t.config.queue_capacity));
       ("cache_entries", Jsonx.Num (float_of_int (Lru.stats t.cache).Lru.entries));
     ]
    @
    match t.store with
    | None -> [ ("store", Jsonx.Str "none") ]
    | Some store ->
        let s = Persist.Store.stats store in
        [
          ("store", Jsonx.Str "open");
          ("store_entries", Jsonx.Num (float_of_int s.Persist.Store.entries));
          ( "store_read_failures",
            Jsonx.Num (float_of_int s.Persist.Store.read_failures) );
        ])

(* The unified counter list for the metrics surface: the server's own
   always-on atomics first (stable names, stable order — CI greps them),
   then whatever {!Util.Trace} counters the process has registered
   (tracing-gated request attribution, pool/kernel work counters).
   Trace names are prefixed to keep the two namespaces from colliding. *)
let unified_counters t =
  let queue_depth = Mutex.protect t.lock (fun () -> Queue.length t.queue) in
  [
    ("requests", Atomic.get t.n_requests);
    ("errors", Atomic.get t.n_errors);
    ("rejected", Atomic.get t.n_rejected);
    ("deadline_missed", Atomic.get t.n_deadline);
    ("replies_dropped", Atomic.get t.n_replies_dropped);
    ("requeued", Atomic.get t.n_requeued);
    ("cache_hits_mem", Atomic.get t.n_hits_mem);
    ("cache_hits_disk", Atomic.get t.n_hits_disk);
    ("cache_misses", Atomic.get t.n_misses);
    ("cache_recovered", Atomic.get t.n_recovered);
    ("singleflight_dedup", Atomic.get t.n_singleflight);
    ("retime_blocks_reused", Atomic.get t.n_blocks_reused);
    ("retime_blocks_recomputed", Atomic.get t.n_blocks_recomputed);
    ("worker_restarts", Atomic.get t.n_worker_restarts);
    ("quarantined", Atomic.get t.n_quarantined);
    ("queue_depth", queue_depth);
    ("workers_busy", Atomic.get t.busy);
    ("workers", t.config.workers);
  ]
  @ List.map (fun (name, v) -> ("trace_" ^ name, v)) (Util.Trace.counters ())

let execute t (request : Protocol.request) : Jsonx.t =
  match request.Protocol.call with
  | Protocol.Prepare { circuit; r } -> (
      match get_setup t circuit with
      | Error (code, msg) -> raise (Reject (code, msg))
      | Ok (setup, setup_tier) ->
          let timer = Util.Timer.start () in
          let models, model_tier = get_models t (process ()) ~r in
          let setup_seconds = Util.Timer.elapsed_s timer in
          Jsonx.Obj
            [
              ("circuit", Jsonx.Str setup.Ssta.Experiment.netlist.Circuit.Netlist.name);
              ( "gates",
                Jsonx.Num
                  (float_of_int (Array.length setup.Ssta.Experiment.netlist.Circuit.Netlist.gates)) );
              ( "logic_gates",
                Jsonx.Num (float_of_int (Array.length setup.Ssta.Experiment.logic_ids)) );
              ("r", Jsonx.Num (float_of_int models.(0).Kle.Model.r));
              ( "mesh_size",
                Jsonx.Num
                  (float_of_int
                     (Geometry.Mesh.size
                        models.(0).Kle.Model.solution.Kle.Galerkin.mesh)) );
              ("cache_setup", Jsonx.Str (tier_name setup_tier));
              ("cache_models", Jsonx.Str (tier_name model_tier));
              ("setup_seconds", Jsonx.Num setup_seconds);
            ])
  | Protocol.Run_mc { circuit; sampler; r; seed; n; batch; full } -> (
      match get_setup t circuit with
      | Error (code, msg) -> raise (Reject (code, msg))
      | Ok (setup, setup_tier) ->
          let sampler_fn, setup_seconds, tier = mc_sampler_of t setup sampler ~r ~seed in
          let mc =
            Ssta.Experiment.run_mc ?batch ?jobs:t.config.jobs ~diag:t.diag setup
              ~sampler:sampler_fn ~seed ~n
          in
          let fields = match mc_payload ~full mc with Jsonx.Obj f -> f | _ -> [] in
          Jsonx.Obj
            (fields
            @ [
                ("cache_setup", Jsonx.Str (tier_name setup_tier));
                ("cache_models", Jsonx.Str (tier_name tier));
                ("sampler_setup_seconds", Jsonx.Num setup_seconds);
              ]))
  | Protocol.Compare { circuit; r; seed; n } -> (
      match get_setup t circuit with
      | Error (code, msg) -> raise (Reject (code, msg))
      | Ok (setup, _) ->
          let ref_sampler, ref_setup_s, _ = mc_sampler_of t setup Protocol.Cholesky ~r ~seed in
          let reference =
            Ssta.Experiment.run_mc ?jobs:t.config.jobs ~diag:t.diag setup ~sampler:ref_sampler
              ~seed ~n
          in
          let cand_sampler, cand_setup_s, _ = mc_sampler_of t setup Protocol.Kle ~r ~seed in
          let candidate =
            Ssta.Experiment.run_mc ?jobs:t.config.jobs ~diag:t.diag setup ~sampler:cand_sampler
              ~seed ~n
          in
          let cmp =
            Ssta.Experiment.compare ~reference ~reference_setup_seconds:ref_setup_s ~candidate
              ~candidate_setup_seconds:cand_setup_s
          in
          Jsonx.Obj
            [
              ("reference", mc_payload reference);
              ("candidate", mc_payload candidate);
              ("e_mu_pct", Jsonx.Num cmp.Ssta.Experiment.e_mu_pct);
              ("e_sigma_pct", Jsonx.Num cmp.Ssta.Experiment.e_sigma_pct);
              ( "sigma_err_avg_outputs_pct",
                Jsonx.Num cmp.Ssta.Experiment.sigma_err_avg_outputs_pct );
              ( "excluded_endpoints",
                Jsonx.Num (float_of_int cmp.Ssta.Experiment.excluded_endpoints) );
              ("speedup", Jsonx.Num cmp.Ssta.Experiment.speedup);
            ])
  | Protocol.Retime { circuit; r; n_blocks; edit } -> (
      match get_setup_edited t circuit edit with
      | Error (code, msg) -> raise (Reject (code, msg))
      | Ok (setup, setup_tier) ->
          let proc = process () in
          let models, model_tier = get_models t proc ~r in
          let result =
            Hier.Engine.retime ?n_blocks ?jobs:t.config.jobs ?cache:t.depgraph setup
              ~models ~model_key:(models_key t proc ~r)
          in
          let counters = result.Hier.Engine.counters in
          ignore
            (Atomic.fetch_and_add t.n_blocks_reused counters.Hier.Engine.blocks_reused);
          ignore
            (Atomic.fetch_and_add t.n_blocks_recomputed
               counters.Hier.Engine.blocks_recomputed);
          Jsonx.Obj
            [
              ("circuit", Jsonx.Str setup.Ssta.Experiment.netlist.Circuit.Netlist.name);
              ("n_blocks", Jsonx.Num (float_of_int result.Hier.Engine.n_blocks));
              ("basis_dim", Jsonx.Num (float_of_int result.Hier.Engine.basis_dim));
              ("worst_mean", Jsonx.Num result.Hier.Engine.worst.Ssta.Canonical.mean);
              ("worst_sigma", Jsonx.Num (Ssta.Canonical.sigma result.Hier.Engine.worst));
              ( "endpoints",
                Jsonx.Num (float_of_int (Array.length result.Hier.Engine.endpoint_forms)) );
              ("blocks_reused", Jsonx.Num (float_of_int counters.Hier.Engine.blocks_reused));
              ( "blocks_recomputed",
                Jsonx.Num (float_of_int counters.Hier.Engine.blocks_recomputed) );
              ("analysis_seconds", Jsonx.Num result.Hier.Engine.analysis_seconds);
              ("cache_setup", Jsonx.Str (tier_name setup_tier));
              ("cache_models", Jsonx.Str (tier_name model_tier));
            ])
  | Protocol.Stats -> stats_payload t
  | Protocol.Health -> health_payload t
  | Protocol.Metrics -> Telemetry.metrics_payload t.telemetry ~counters:(unified_counters t)
  | Protocol.Debug -> Telemetry.debug_payload t.telemetry
  | Protocol.Shutdown ->
      Atomic.set t.shutdown_flag true;
      Jsonx.Obj [ ("shutting_down", Jsonx.Bool true) ]

let method_name (request : Protocol.request) =
  match request.Protocol.call with
  | Protocol.Prepare _ -> "prepare"
  | Protocol.Run_mc _ -> "run_mc"
  | Protocol.Compare _ -> "compare"
  | Protocol.Retime _ -> "retime"
  | Protocol.Stats -> "stats"
  | Protocol.Health -> "health"
  | Protocol.Metrics -> "metrics"
  | Protocol.Debug -> "debug"
  | Protocol.Shutdown -> "shutdown"

(* Exactly-once reply: the atomic exchange makes the first caller the
   only one that touches the wire. A second attempt (e.g. a restarted
   worker re-running a job that had already replied before the crash
   point) is suppressed into a [serve.reply] diagnostic — never a
   duplicated line for the same id. A reply can also fail mid-write when
   the client has disconnected (broken pipe / closed fd); that must never
   take down the worker domain either. *)
let safe_reply t job response =
  if Atomic.exchange job.replied true then
    Util.Diag.record ~sink:t.diag Util.Diag.Warning `Degraded_fallback
      ~stage:"serve.reply"
      (Printf.sprintf "duplicate reply for request id=%s suppressed"
         (Jsonx.to_string job.request.Protocol.id))
  else begin
    let t0 = Util.Trace.now_ns () in
    (try job.reply response
     with e ->
       Atomic.incr t.n_replies_dropped;
       Util.Diag.record ~sink:t.diag Util.Diag.Warning `Degraded_fallback
         ~stage:"serve.reply"
         (Printf.sprintf "reply for request id=%s dropped: %s"
            (Jsonx.to_string job.request.Protocol.id)
            (Printexc.to_string e)));
    job.reply_write_ns <- Util.Trace.now_ns () - t0
  end

let enter_draining t =
  Mutex.protect t.lock (fun () ->
      Atomic.set t.draining true;
      Condition.broadcast t.not_empty)

(* Util.Trace.now_ns reads the raw monotonic clock — it is NOT gated by
   the tracing flag, so deadlines stay live when tracing is disabled
   (test_serve pins this down). Returns false (and replies) when expired. *)
let check_deadline t job =
  let expired =
    match job.deadline_ns with
    | Some deadline -> Util.Trace.now_ns () > deadline
    | None -> false
  in
  if expired then begin
    Atomic.incr t.n_deadline;
    Util.Trace.incr c_deadline;
    safe_reply t job
      (job.codec.rc_error ~id:job.request.Protocol.id ~req_id:(echo_req_id job)
         Protocol.Deadline_exceeded "deadline elapsed before the request was executed")
  end;
  not expired

(* Per-request stage breakdown, recorded after the reply is on the wire:
   batch_wait (ingress decode -> queue admission), queue_wait (admission ->
   dequeue), cache_lookup (the per-domain cache clock), compute (execution
   net of cache time), reply_write (inside [safe_reply]). Deadline-expired
   requests are not recorded — they never executed, and their zeros would
   drag every stage quantile down. *)
let record_stages t job ~method_ ~ok ~dequeue_ns ~exec_ns ~cache_ns =
  let total_ns = max 0 (Util.Trace.now_ns () - job.submitted_ns) in
  Telemetry.record_request t.telemetry ~req_id:job.req_id ~method_ ~ok
    ~stages:
      [
        (Telemetry.Batch_wait, max 0 (job.enqueued_ns - job.submitted_ns));
        (Telemetry.Queue_wait, max 0 (dequeue_ns - job.enqueued_ns));
        (Telemetry.Cache_lookup, cache_ns);
        (Telemetry.Compute, max 0 (exec_ns - cache_ns));
        (Telemetry.Reply_write, job.reply_write_ns);
      ]
    ~total_ns

let run_job t job =
  let request = job.request in
  let id = request.Protocol.id in
  let req_id = echo_req_id job in
  if check_deadline t job then begin
    let dequeue_ns = Util.Trace.now_ns () in
    Atomic.incr t.n_requests;
    Util.Trace.incr c_requests;
    let clk = Domain.DLS.get cache_clock_key in
    cache_clock_reset clk;
    let ok = ref true in
    let fail () =
      ok := false;
      Atomic.incr t.n_errors;
      Util.Trace.incr c_errors
    in
    let x0 = Util.Trace.now_ns () in
    let response =
      Util.Trace.with_span
        ~attrs:[ ("method", method_name request); ("req_id", job.req_id) ]
        "serve.request"
      @@ fun () ->
      match execute t request with
      | payload -> job.codec.rc_ok ~id ~req_id payload
      | exception Reject (code, msg) ->
          fail ();
          job.codec.rc_error ~id ~req_id code msg
      | exception Util.Diag.Failure event ->
          fail ();
          job.codec.rc_error ~id ~req_id Protocol.Internal_error (Util.Diag.to_string event)
      | exception Invalid_argument msg ->
          fail ();
          job.codec.rc_error ~id ~req_id Protocol.Bad_params msg
      | exception e ->
          fail ();
          job.codec.rc_error ~id ~req_id Protocol.Internal_error (Printexc.to_string e)
    in
    let exec_ns = Util.Trace.now_ns () - x0 in
    let cache_ns = cache_clock_read clk in
    safe_reply t job response;
    record_stages t job ~method_:(method_name request) ~ok:!ok ~dequeue_ns ~exec_ns
      ~cache_ns;
    (* shutdown begins its drain only after the ok reply is on the wire *)
    if Atomic.get t.shutdown_flag && not (Atomic.get t.draining) then enter_draining t
  end

(* deterministic scheduling failure, injected between dequeue and
   execution (or, for [chaos_crash_after], between the reply and the
   slot release) — it escapes [run_job]'s catch-all on purpose, so the
   only thing standing between it and a silently dead domain is the
   supervision barrier *)
exception Crash_injected

let maybe_crash plan =
  match plan with
  | Some p when Util.Fault.fires p -> raise Crash_injected
  | Some _ | None -> ()

(* [slot] is the worker's in-flight job, visible to the crash handler:
   when the body dies the supervisor must know which request was being
   executed to re-queue or quarantine it *)
let worker_loop t (slot : job option ref) () =
  let rec next () =
    Mutex.lock t.lock;
    let rec wait () =
      if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
      else if Atomic.get t.draining then None
      else begin
        Condition.wait t.not_empty t.lock;
        wait ()
      end
    in
    let job = wait () in
    Mutex.unlock t.lock;
    match job with
    | None -> ()
    | Some job ->
        slot := Some job;
        Atomic.incr t.busy;
        maybe_crash t.config.chaos_crash;
        run_job t job;
        maybe_crash t.config.chaos_crash_after;
        slot := None;
        Atomic.decr t.busy;
        next ()
  in
  next ()

(* the supervision policy: account for the in-flight job (retry it once on
   a restarted worker, quarantine after a second kill), then restart
   unless the pool is draining *)
let on_worker_crash t (slot : job option ref) e ~restarts =
  (* restart accounting first, so any reply sent below (quarantine,
     draining) observes up-to-date counters on the client side *)
  let outcome =
    if Atomic.get t.draining then `Stop
    else begin
      Atomic.incr t.n_worker_restarts;
      Util.Trace.incr c_worker_restarts;
      Util.Diag.record ~sink:t.diag Util.Diag.Warning `Degraded_fallback
        ~stage:"serve.worker"
        (Printf.sprintf "worker crashed (%s) — restart #%d" (Printexc.to_string e)
           (restarts + 1));
      `Restart
    end
  in
  (match !slot with
  | None -> ()
  | Some job ->
      slot := None;
      Atomic.decr t.busy;
      (* a job that replied before the crash point is retried too: the
         re-run's reply is suppressed by the [safe_reply] guard (and a
         duplicate-reply diagnostic recorded), never written twice *)
      let attempts = 1 + Atomic.fetch_and_add job.attempts 1 in
      if attempts >= 2 then begin
        Atomic.incr t.n_quarantined;
        Util.Diag.record ~sink:t.diag Util.Diag.Warning `Degraded_fallback
          ~stage:"serve.worker"
          (Printf.sprintf "request id=%s quarantined after crashing %d workers"
             (Jsonx.to_string job.request.Protocol.id)
             attempts);
        safe_reply t job
          (job.codec.rc_error ~id:job.request.Protocol.id ~req_id:(echo_req_id job)
             Protocol.Internal_error
             (Printf.sprintf "request crashed the worker %d times — quarantined" attempts))
      end
      else if Atomic.get t.draining then
        safe_reply t job
          (job.codec.rc_error ~id:job.request.Protocol.id ~req_id:(echo_req_id job)
             Protocol.Shutting_down "worker crashed while draining; request not retried")
      else begin
        Atomic.incr t.n_requeued;
        (* the retry re-enters the queue now; resetting the admission
           stamp keeps queue_wait honest for the re-run *)
        job.enqueued_ns <- Util.Trace.now_ns ();
        Mutex.protect t.lock (fun () ->
            Queue.push job t.queue;
            Condition.signal t.not_empty)
      end);
  outcome

let reject_job t job verdict =
  Atomic.incr t.n_rejected;
  Util.Trace.incr c_rejected;
  match verdict with
  | `Draining ->
      safe_reply t job
        (job.codec.rc_error ~id:job.request.Protocol.id ~req_id:(echo_req_id job)
           Protocol.Shutting_down "server is draining")
  | `Full ->
      safe_reply t job
        (job.codec.rc_error ~id:job.request.Protocol.id ~req_id:(echo_req_id job)
           Protocol.Overloaded
           (Printf.sprintf "queue full (%d pending)" t.config.queue_capacity))

(* The single enqueue point: a job is admitted while the queue holds fewer
   than [queue_capacity] jobs, otherwise answered with a typed rejection
   (shed, not collapse). *)
let enqueue t job =
  let verdict =
    Mutex.protect t.lock (fun () ->
        if Atomic.get t.draining then `Draining
        else if Queue.length t.queue >= t.config.queue_capacity then `Full
        else begin
          (* queue admission: everything before this stamp is batch_wait,
             everything after until dequeue is queue_wait *)
          job.enqueued_ns <- Util.Trace.now_ns ();
          Queue.push job t.queue;
          Condition.signal t.not_empty;
          `Queued
        end)
  in
  match verdict with `Queued -> () | (`Draining | `Full) as v -> reject_job t job v

(* ---------------------------------------------------------------- *)
(* lifecycle *)

(* ingress req_id namespace: two servers in one process (router tests)
   must not mint colliding IDs, so mix a per-process sequence into the
   monotonic-clock reading *)
let instance_counter = Atomic.make 0

let create ?diag config =
  if config.workers < 1 then invalid_arg "Server.create: workers < 1";
  if config.queue_capacity < 1 then invalid_arg "Server.create: queue_capacity < 1";
  let diag = match diag with Some d -> d | None -> Util.Diag.create () in
  let instance =
    (Util.Trace.now_ns () land 0xFFFF_FFFF) lxor (Atomic.fetch_and_add instance_counter 1 lsl 32)
  in
  let telemetry = Telemetry.create ~slow_ms:config.slow_ms ~ring_size:config.slow_ring () in
  Telemetry.set_log telemetry config.request_log;
  let store =
    Option.map
      (fun dir ->
        Persist.Store.open_ ~diag ~io_faults:config.store_io_faults ~dir ())
      config.store_dir
  in
  let t =
    {
      config;
      diag;
      store;
      depgraph = Option.map Persist.Depgraph.create store;
      cache = Lru.create ~capacity:config.cache_entries;
      queue = Queue.create ();
      lock = Mutex.create ();
      not_empty = Condition.create ();
      inflight = Hashtbl.create 8;
      inflight_lock = Mutex.create ();
      inflight_done = Condition.create ();
      draining = Atomic.make false;
      joined = false;
      worker_handles = [];
      joiner = None;
      shutdown_flag = Atomic.make false;
      busy = Atomic.make 0;
      n_worker_restarts = Atomic.make 0;
      n_quarantined = Atomic.make 0;
      n_requests = Atomic.make 0;
      n_errors = Atomic.make 0;
      n_rejected = Atomic.make 0;
      n_deadline = Atomic.make 0;
      n_hits_mem = Atomic.make 0;
      n_hits_disk = Atomic.make 0;
      n_misses = Atomic.make 0;
      n_recovered = Atomic.make 0;
      n_singleflight = Atomic.make 0;
      n_replies_dropped = Atomic.make 0;
      n_requeued = Atomic.make 0;
      n_blocks_reused = Atomic.make 0;
      n_blocks_recomputed = Atomic.make 0;
      telemetry;
      instance;
      req_seq = Atomic.make 0;
    }
  in
  t.worker_handles <-
    List.init config.workers (fun _ ->
        let slot = ref None in
        Supervisor.spawn ~on_crash:(on_worker_crash t slot) (worker_loop t slot));
  t

let shutdown_requested t = Atomic.get t.shutdown_flag

let submit_wire t ~wire payload ~reply =
  let codec = match wire with `Json -> json_codec | `Binary -> binary_codec in
  let decoded =
    match wire with
    | `Json -> Protocol.decode payload
    | `Binary -> Wire.decode_request payload
  in
  match decoded with
  | Error rej ->
      Atomic.incr t.n_errors;
      Util.Trace.incr c_errors;
      (* the reject record carries the best-effort id, the echoed req_id
         (JSON wire parses it before any validation can fail) and, for
         semantically unknown params keys, the offending field *)
      reply (codec.rc_reject rej)
  | Ok request -> (
      let submitted_ns = Util.Trace.now_ns () in
      let deadline_ns =
        Option.map (fun ms -> submitted_ns + int_of_float (ms *. 1e6)) request.Protocol.deadline_ms
      in
      (* the effective correlation ID: the client's if it sent one, minted
         at ingress otherwise — so traces, logs and the slow ring always
         have one. Only client-sent IDs are echoed in replies. *)
      let req_id =
        match request.Protocol.req_id with
        | Some r -> r
        | None -> Printf.sprintf "srv-%08x-%d" t.instance (Atomic.fetch_and_add t.req_seq 1)
      in
      let job =
        {
          request;
          reply;
          codec;
          deadline_ns;
          replied = Atomic.make false;
          attempts = Atomic.make 0;
          req_id;
          submitted_ns;
          enqueued_ns = submitted_ns;
          reply_write_ns = 0;
        }
      in
      enqueue t job)

let submit t line ~reply = submit_wire t ~wire:`Json line ~reply

let begin_drain t = enter_draining t

let worker_restarts t = Atomic.get t.n_worker_restarts
let quarantined t = Atomic.get t.n_quarantined

let drain ?timeout_s t =
  begin_drain t;
  if not t.joined then begin
    (* joins happen on a dedicated thread so a stuck worker can only cost
       us the timeout, never hang the caller forever; the thread is
       created once — a drain retry after a timeout waits on the same
       join, it never double-joins a domain *)
    let joiner_thread, joined_flag =
      match t.joiner with
      | Some j -> j
      | None ->
          let flag = Atomic.make false in
          let th =
            Thread.create
              (fun () ->
                List.iter Supervisor.join t.worker_handles;
                Atomic.set flag true)
              ()
          in
          let j = (th, flag) in
          t.joiner <- Some j;
          j
    in
    let timeout_s =
      match timeout_s with Some _ as s -> s | None -> t.config.drain_timeout_s
    in
    match timeout_s with
    | None ->
        Thread.join joiner_thread;
        t.joined <- true
    | Some limit ->
        let deadline = Util.Trace.now_ns () + int_of_float (limit *. 1e9) in
        while (not (Atomic.get joined_flag)) && Util.Trace.now_ns () < deadline do
          Thread.delay 0.002
        done;
        if Atomic.get joined_flag then begin
          Thread.join joiner_thread;
          t.joined <- true
        end
        else
          Util.Diag.record ~sink:t.diag Util.Diag.Warning `Degraded_fallback
            ~stage:"serve.drain"
            (Printf.sprintf
               "worker join timed out after %gs (%d worker(s) still busy) — detaching"
               limit (Atomic.get t.busy))
  end
