(** Serving-tier telemetry: per-stage latency histograms, a slow-request
    ring buffer, structured request logs, and live exposition.

    One registry per {!Server}. Workers record each executed request's
    per-stage breakdown — where it waited and where it worked:

    - [queue_wait]: from entering the worker queue to being dequeued;
    - [batch_wait]: from ingress decode to queue admission;
    - [cache_lookup]: time inside the cache tiers (memory LRU, disk store,
      single-flight waits) during execution;
    - [compute]: execution time net of cache lookups;
    - [reply_write]: encoding + writing the response to the wire;

    plus a [total] (submission to reply) histogram. Recording is lock-free
    ({!Util.Histogram}); the fixed bucket layout makes shard histograms
    mergeable into one cluster view by the router ({!merge_metrics}).

    The [metrics] protocol method returns {!metrics_payload} — counters
    unified from the server's own atomics and {!Util.Trace.counters},
    per-stage quantiles, full histogram snapshots, and a Prometheus text
    exposition. The [debug] method returns {!debug_payload} — the last
    requests whose total latency exceeded [slow_ms], each with its request
    ID and per-stage breakdown. *)

type stage = Queue_wait | Batch_wait | Cache_lookup | Compute | Reply_write

val stage_name : stage -> string
(** Stable wire name, e.g. ["queue_wait"]. *)

val all_stages : stage list

type t

val create : ?slow_ms:float -> ?ring_size:int -> unit -> t
(** [slow_ms] (default 0: every request qualifies) is the slow-request
    threshold; the ring keeps the last [ring_size] (default 64) qualifying
    requests. *)

val set_enabled : t -> bool -> unit
(** Telemetry is on by default; disabling turns {!record_request} into a
    no-op (used to measure the recording overhead itself). *)

val enabled : t -> bool

val set_log : t -> (Jsonx.t -> unit) option -> unit
(** Structured request-log sink ([ssta_serve --log-json]): called once per
    recorded request with a one-line JSON object (request ID, method,
    outcome, per-stage milliseconds). *)

val record_request :
  t ->
  req_id:string ->
  method_:string ->
  ok:bool ->
  stages:(stage * int) list ->
  total_ns:int ->
  unit
(** Record one completed request: each stage duration (nanoseconds) into
    its histogram, [total_ns] into the total histogram, ring admission
    against the slow threshold, and the log sink if set. *)

val stage_histogram : t -> stage -> Util.Histogram.t
val total_histogram : t -> Util.Histogram.t

val metrics_payload : t -> counters:(string * int) list -> Jsonx.t
(** The [metrics] response: [{"counters": {...}, "stages": {<stage>:
    {count, p50_ms, p90_ms, p99_ms, p999_ms, max_ms, mean_ms}},
    "histograms": {<stage>: <versioned histogram JSON>}, "prometheus":
    "<text exposition>"}]. [counters] is the unified counter list (server
    atomics + {!Util.Trace.counters}). *)

val prometheus : t -> counters:(string * int) list -> string
(** Prometheus text exposition alone: one [ssta_<counter>] counter line
    per entry plus [ssta_stage_latency_seconds{stage=...,quantile=...}]
    summaries with [_sum]/[_count]. *)

val merge_metrics : Jsonx.t list -> Jsonx.t
(** Router-side cluster view: merge shard {!metrics_payload}s — counters
    summed by name, histograms merged bucket-by-bucket (the fixed layout
    makes this exact), quantiles and the Prometheus text recomputed from
    the merged histograms. Shard payload entries that fail to decode are
    skipped. *)

val debug_payload : t -> Jsonx.t
(** The [debug] response: [{"slow_ms": <threshold>, "slow_requests":
    [{seq, req_id, method, ok, total_ms, stages: {...}}]}], oldest first. *)

val reset : t -> unit
(** Zero histograms and empty the ring (between bench sweep rows). Callers
    quiesce recording first. *)
