(** Consistent-hash shard router for the serving tier.

    The front of a multi-process [ssta_serve --router] deployment: requests
    are decoded once (either wire), their {e model-spec key} (circuit +
    truncation) is consistent-hashed onto a ring of virtual nodes, and the
    request is forwarded — still structured, never re-parsed — to the owning
    shard. Each shard is a full {!Server} (its own worker pool and memory
    LRU) and all shards share one content-addressed {!Persist.Store}, so an
    artifact is eigensolved once cluster-wide but routed hot from exactly
    one shard's memory tier.

    Failure and overload policy:
    - {b Shed, not collapse}: when the owning shard already has
      [max_inflight_per_shard] router-forwarded requests in flight, the
      router answers a typed [overloaded] {e immediately} instead of
      spilling the key onto other shards (which would duplicate the
      expensive artifacts and melt every cache at once).
    - {b Retry next replica}: an {e unhealthy} shard (crashed process, dead
      connection) is skipped and the request goes to the next distinct
      shard on the ring, up to [replicas] candidates; each hop bumps
      [retried]. Only unhealthiness fails over — a {e delivered} typed
      error is final (retrying it could duplicate side effects; the
      client's retry policy owns that decision).

    [stats]/[health]/[debug] aggregate over all shards (plus router
    counters); [metrics] goes further and {e merges}: every shard's
    histogram snapshots are combined bucket-by-bucket
    ({!Telemetry.merge_metrics}) into one cluster-wide view with
    recomputed quantiles and Prometheus text. [shutdown] broadcasts.
    Responses are re-encoded on the wire the request arrived on, echoing
    its original id and — when the client sent one — its [req_id]. *)

type backend = {
  send :
    Protocol.request ->
    reply:((Util.Jsonx.t, Protocol.error_code * string) result -> unit) ->
    unit;
      (** Forward one structured request. [reply] must be called exactly
          once (possibly from another thread); raising from [send] counts
          as shard failure and triggers replica failover. *)
  healthy : unit -> bool;  (** liveness gate consulted before forwarding *)
  describe : string;  (** for diagnostics, e.g. ["shard-0"] *)
}

val backend_of_server : ?describe:string -> Server.t -> backend
(** In-process backend over a {!Server} (tests, bench, chaos): requests
    round-trip through the binary wire codec, so the router path exercises
    the same encode/decode as a cross-process deployment. *)

type config = {
  vnodes : int;  (** virtual nodes per shard on the hash ring *)
  max_inflight_per_shard : int;  (** shed threshold *)
  replicas : int;  (** distinct shards tried before giving up *)
}

val default_config : config
(** 64 vnodes, 32 in-flight per shard, 2 replicas. *)

type stats = { forwarded : int; shed : int; retried : int; shard_errors : int }

type t

val create : ?config:config -> backend list -> t
(** Raises [Invalid_argument] on an empty backend list. *)

val routing_key : Protocol.request -> string option
(** The model-spec key a request hashes on — circuit identity (inline bench
    text keys by content hash) plus truncation [r]. [None] for
    [stats]/[health]/[metrics]/[debug]/[shutdown], which the router
    handles itself. *)

val shard_of : t -> string -> int
(** Ring lookup: the owning shard index for a key (exposed for tests —
    stable across shard restarts, balanced across keys). *)

val submit : t -> wire:[ `Json | `Binary ] -> string -> reply:(string -> unit) -> unit
(** Decode one request payload (a JSON line or a binary frame payload),
    route it, and reply — exactly once — on the same wire with the
    request's original id. Mirrors {!Server.submit_wire}. *)

val shutdown_requested : t -> bool
(** True once a [shutdown] request has been broadcast (the transport loop
    should stop reading and drain the shards). *)

val stats : t -> stats
