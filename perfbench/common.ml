(* Shared machinery of the benchmark: seeds, timing probes, order
   statistics, output checks and the result line. *)

(* End-to-end runs use both cores of the reference machine. *)
let jobs = 2

(* Every input of a run derives from the workload seed and a label, so the
   same seed gives the same circuits, Monte Carlo seeds and edit lists. *)
let derive seed label = Hashtbl.hash (seed, label) land 0x3FFF_FFFF

let now_s () = float_of_int (Util.Trace.now_ns ()) /. 1e9

(* What one call into a layer cost, measured from outside it: wall time,
   process CPU time (all domains) and minor words allocated. *)
type probe = { wall_s : float; cpu_s : float; minor_words : float }

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let measure f =
  let g0 = (Gc.quick_stat ()).Gc.minor_words in
  let c0 = cpu_now () in
  let t0 = now_s () in
  let v = f () in
  let wall_s = now_s () -. t0 in
  let cpu_s = cpu_now () -. c0 in
  let minor_words = (Gc.quick_stat ()).Gc.minor_words -. g0 in
  (v, { wall_s; cpu_s; minor_words })

let time f =
  let v, p = measure f in
  (v, p.wall_s)

let sum_probes ps =
  List.fold_left
    (fun a p ->
      {
        wall_s = a.wall_s +. p.wall_s;
        cpu_s = a.cpu_s +. p.cpu_s;
        minor_words = a.minor_words +. p.minor_words;
      })
    { wall_s = 0.0; cpu_s = 0.0; minor_words = 0.0 }
    ps

(* Runs a set-up [n] times; returns the last result and every set-up's wall
   time. *)
let repeat_setup n f =
  let rec go k times last =
    if k = 0 then (Option.get last, List.rev times)
    else
      let v, dt = time f in
      go (k - 1) (dt :: times) (Some v)
  in
  go n [] None

let cpu_util p = if p.wall_s > 0.0 then p.cpu_s /. p.wall_s else 0.0

(* ---- order statistics ---- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* nearest-rank percentile; with fewer than 1/(1-p) samples it is the max *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* ---- output checks ---- *)

(* Operations attempted and failed, plus any check that failed outside an
   operation. A failed check is printed to stderr with its reason. *)
type checks = { mutable attempted : int; mutable failed : int; mutable bad : int }

let checks () = { attempted = 0; failed = 0; bad = 0 }

let fail_check c fmt =
  Printf.ksprintf
    (fun msg ->
      c.bad <- c.bad + 1;
      prerr_endline ("perfbench: check failed: " ^ msg))
    fmt

let check c cond fmt = if cond then Printf.ifprintf () fmt else fail_check c fmt

(* Run one operation: it counts as failed when it raises or when any check
   it makes fails. *)
let operation c f =
  c.attempted <- c.attempted + 1;
  let bad0 = c.bad in
  match f () with
  | v ->
      if c.bad > bad0 then c.failed <- c.failed + 1;
      Some v
  | exception e ->
      c.failed <- c.failed + 1;
      c.bad <- c.bad + 1;
      prerr_endline ("perfbench: operation raised: " ^ Printexc.to_string e);
      None

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Paper-plus-noise bounds for a Monte Carlo comparison of a candidate
   against a reference with [n] samples each. The paper reports e_mu below
   0.11 % and e_sigma below 5.7 % (Table 1); on top of that each estimate
   may move by four standard errors of its own Monte Carlo noise. *)
let mc_bounds ~n ~(reference : Ssta.Experiment.mc_result)
    ~(candidate : Ssta.Experiment.mc_result) =
  let nf = float_of_int n in
  let mu = reference.Ssta.Experiment.worst_mean in
  let s_ref = reference.Ssta.Experiment.worst_sigma in
  let s_kle = candidate.Ssta.Experiment.worst_sigma in
  let e_mu_bound =
    0.11 +. (4.0 *. 100.0 *. sqrt (((s_ref *. s_ref) +. (s_kle *. s_kle)) /. nf) /. mu)
  in
  let e_sigma_bound = 5.7 +. (4.0 *. 100.0 *. sqrt (1.0 /. nf)) in
  (e_mu_bound, e_sigma_bound)

let check_mc_agreement c ~label ~n ~reference ~candidate =
  let cmp =
    Ssta.Experiment.compare ~reference ~reference_setup_seconds:0.0 ~candidate
      ~candidate_setup_seconds:0.0
  in
  let e_mu_bound, e_sigma_bound = mc_bounds ~n ~reference ~candidate in
  check c
    (cmp.Ssta.Experiment.e_mu_pct <= e_mu_bound)
    "%s: e_mu %.4f%% over its bound %.4f%%" label cmp.Ssta.Experiment.e_mu_pct e_mu_bound;
  check c
    (cmp.Ssta.Experiment.e_sigma_pct <= e_sigma_bound)
    "%s: e_sigma %.3f%% over its bound %.3f%%" label cmp.Ssta.Experiment.e_sigma_pct
    e_sigma_bound

(* ---- the result line ---- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* Prints the result object as the last stdout line. A non-finite value is
   a failed check: JSON cannot carry it, so it is printed as 0. Names and
   units are plain ASCII literals, which %S quotes as JSON does. *)
let print_result c metrics =
  List.iter
    (fun m -> check c (Float.is_finite m.value) "metric %s is not finite" m.name)
    metrics;
  let correct = c.bad = 0 in
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name
          (if Float.is_finite m.value then m.value else 0.0)
          m.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 c.attempted) c.failed (String.concat ", " fields);
  correct

(* ---- tracing ---- *)

let traced f =
  Util.Trace.reset ();
  Util.Trace.enable ();
  Fun.protect ~finally:Util.Trace.disable f

let rec find_span name nodes =
  List.fold_left
    (fun acc (n : Util.Trace.node) ->
      let here = if String.equal n.Util.Trace.name name then n.Util.Trace.total_ns else 0 in
      acc + here + find_span name n.Util.Trace.children)
    0 nodes

(* Total seconds spent in spans of this name, anywhere in the recorded tree
   (0 when the layer did not run). *)
let span_s name = float_of_int (find_span name (Util.Trace.span_tree ())) /. 1e9

let counter name =
  match List.assoc_opt name (Util.Trace.counters ()) with Some v -> float_of_int v | None -> 0.0

(* Container spans only group work; their self time is not attributed to
   any layer. *)
let is_container name =
  List.mem name [ "run_mc"; "mc.batch"; "algorithm2.prepare" ]
  || String.starts_with ~prefix:"pipeline." name

(* Seconds of the recorded span tree that belong to a named, non-container
   layer. *)
let attributed_s () =
  let rec attributed (n : Util.Trace.node) =
    if is_container n.Util.Trace.name then
      List.fold_left (fun acc c -> acc + attributed c) 0 n.Util.Trace.children
    else n.Util.Trace.total_ns
  in
  float_of_int (List.fold_left (fun acc n -> acc + attributed n) 0 (Util.Trace.span_tree ()))
  /. 1e9
