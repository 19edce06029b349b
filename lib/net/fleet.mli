(** Multi-tenant load generator: N simulated users driving one
    {!Service} in closed loop (one exchange in flight per tenant, the
    next submitted from the completion of the last).

    Each tenant owns an independent client session seeded from a
    [Drbg.split] child of the fleet seed, its own position and jitter
    streams, its own counters, and optionally a shared deployment
    {!Lbq_cache.Keypool}, and loops {!Lbq_core.Protocol.round}.
    Per-tenant {!Chaos} judges request and response frames; sheds and
    losses consume one {!Retry.run} budget, a shed's retry-after hint
    being the least wait before the retry.

    With chaos off and no shared keypool, a fleet run's transcripts are
    a pure function of (fleet seed, deployment) — independent of shard
    count and scheduling — which is what the byte-identity test
    asserts. *)

module Counters = Lbq_metrics.Counters
module Histogram = Lbq_metrics.Histogram
module Keypool = Lbq_cache.Keypool

type stop =
  | Rounds of int      (** each tenant starts exactly this many rounds *)
  | Duration of float  (** stop starting new rounds after this many seconds *)

type config = {
  tenants : int;
  stop : stop;
  chaos : Chaos.config option;  (** per-tenant fault injection *)
  policy : Retry.policy;        (** budget for sheds and losses alike *)
  seed : string;
  record : bool;                (** keep per-round transcripts *)
  reuse : bool;
      (** pass [reuse:true] to {!Lbq_core.Client.stage2_query}: each
          tenant caches its phi-hiding instance per cell and reuses it
          on later same-cell rounds (paper §VI — fast, but lets the
          server link those rounds).  Deterministic per tenant, so
          byte-identity across scheduling is preserved. *)
}

(** 4 tenants x 4 rounds, no chaos, snappy millisecond-scale retry
    policy, no transcripts, no instance reuse. *)
val default_config : config

(** One completed round's witness: credential identity, raw PIR reply
    group element, decoded POI count. *)
type entry = { idq : int; key : string; ge : Lbq_bignum.Z.t; pois : int }

(** One tenant's slice of the run, for per-tenant reporting. *)
type tenant_stats = {
  rounds_completed : int;
  rounds_failed : int;
  counters : Counters.snapshot;  (** that tenant's sheds/retries/drops *)
}

type outcome = {
  tenants : int;
  rounds : int;                (** completed *)
  failed : int;                (** abandoned after the retry budget *)
  duration_s : float;
  qps : float;                 (** completed rounds per second *)
  round_latency : Histogram.t;
  service_latency : Histogram.t;
      (** submit-to-completion latency aggregated across the service's
          per-shard histograms ({!Lbq_metrics.Histogram.merge} of
          {!Service.shard_latencies}) *)
  sheds : int;                 (** Shed outcomes tenants observed *)
  retries : int;               (** re-attempts after shed or loss *)
  drops : int;                 (** frames chaos destroyed *)
  per_tenant : tenant_stats array;  (** indexed by tenant id *)
  transcripts : entry list array;
      (** per tenant in round order; empty unless [record] *)
}

(** Drive [service] with [config.tenants] simulated users until the stop
    condition, then drain in-flight work and report.  [pool] shares a
    prewarmed keypool across tenants (faster, but takes are
    scheduling-ordered — leave it off for byte-identity runs).  [clock]
    substitutes the latency clock (default [Unix.gettimeofday]).  The
    service must be driven by this fleet alone (it consumes the
    completion stream). *)
val run : ?pool:Keypool.t -> ?clock:(unit -> float) -> Service.t -> config
  -> outcome
