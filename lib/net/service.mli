(** Multi-tenant service layer: the LS as a long-running server under
    sustained traffic.

    The stage-2 database is striped across [shards] sub-servers
    ({!Lbq_core.Server.pir_shards}; at one shard, the master's own
    encode, handed over by {!Lbq_core.Server.take_pir}), each owned by
    one worker domain
    with its own bounded request queue and its own ~1/shards-size
    cached exponent schedule — so adding domains both parallelises and
    shrinks per-query work.  Submits past a queue's high watermark are
    refused with a retry-after hint (backpressure as data, composable
    with {!Chaos}/{!Retry}).  OT blinding streams are forked from the
    service seed by (tenant, seq), so any concurrent schedule is
    byte-identical to the {!respond_reference} sequential oracle and a
    retried exchange re-derives the same reply. *)

open Lbq_bignum
module Server = Lbq_core.Server
module Ot = Lbq_ot.Ot
module Counters = Lbq_metrics.Counters
module Histogram = Lbq_metrics.Histogram

type request =
  | Ot_query of Ot.query
  | Pir_query of { shard : int; n : Z.t; g : Z.t }
      (** [shard] is the client-computed
          {!Lbq_core.Server.shard_of_cell} of its credential's IDQ:
          the published deployment convention (and the explicit
          anonymity-set trade documented there). *)

type reply =
  | Ot_reply of (Ot.response, Server.rejection) result
  | Pir_reply of (Z.t, Server.rejection) result

(** An accepted request in flight: completion is observed via {!await}
    or {!next_done}. *)
type ticket

type outcome =
  | Accepted of ticket
  | Shed of { retry_after_s : float }
      (** The shard queue was at its high watermark; retry after the
          hinted delay (backlog x smoothed service time). *)

type t

(** Build the service over an initialised LS.

    [shards]: worker domains / database stripes (1–64; also bounded by
    the private cell count).  [queue_depth]: per-shard bounded-queue
    high watermark (default 64).  [batch]: how many queued requests a
    worker drains per dispatch under one lock acquisition (default 1 —
    one request per dispatch).  Every drained request is answered one
    at a time by the function behind {!respond_reference}, so every
    reply is byte-identical to it at any batch size.
    [spawn:false] starts no domains — requests queue until {!pump}
    serves them inline on the calling domain (deterministic mode for
    the admission tests).  [ot_seed] overrides the per-request blinding
    DRBG seed (default: the deployment seed).  [clock] substitutes the
    latency clock (tests); default [Unix.gettimeofday].  [metrics] is
    the aggregate sink for [served]/[sheds]/[batch_served] (default:
    the server's own counters). *)
val create :
  ?ot_seed:string -> ?metrics:Counters.t -> ?clock:(unit -> float) ->
  ?queue_depth:int -> ?batch:int -> ?spawn:bool -> shards:int -> Server.t -> t

(** [create] + [f] + guaranteed {!shutdown}. *)
val with_service :
  ?ot_seed:string -> ?metrics:Counters.t -> ?clock:(unit -> float) ->
  ?queue_depth:int -> ?batch:int -> ?spawn:bool -> shards:int -> Server.t ->
  (t -> 'a) -> 'a

val shard_count : t -> int
val queue_depth : t -> int

(** Max requests drained per worker dispatch (the [batch] of {!create}). *)
val batch : t -> int

val server : t -> Server.t

(** Submit-to-completion latency, one histogram per shard in shard
    order; each request is recorded once, on its shard.
    {!Lbq_metrics.Histogram.merge} gives the aggregate. *)
val shard_latencies : t -> Histogram.t list

(** Current backlog of one shard's queue. *)
val queue_length : t -> int -> int

(** Submit one request for [tenant]'s [seq]-th exchange.  [seq] keys
    the request's forked blinding stream: resubmitting the same
    (tenant, seq) — e.g. after a lost reply — re-derives the same
    response bytes (idempotent resume).  Raises [Invalid_argument] on
    an out-of-range PIR shard or after {!shutdown}. *)
val submit : t -> tenant:int -> seq:int -> request -> outcome

(** Block until the ticket completes (in [spawn:false] mode, serves the
    backlog inline instead of blocking).  Does not consume from the
    {!next_done} stream — drive a given service instance with one of
    the two, not both. *)
val await : t -> ticket -> reply

(** Pop the next completed ticket, in completion order; blocks while
    none is ready, so only call with work in flight.  [None] after
    {!shutdown}, or in pump mode when nothing is queued. *)
val next_done : t -> ticket option

(** Serve every queued request inline on the calling domain (FIFO per
    shard, shards in order); returns how many were served.  The
    deterministic no-domains mode for tests. *)
val pump : t -> int

(** {2 Streaming updates and epochs}

    The database advances in epochs: epoch 0 is the build, and each
    {!submit_update} batch bumps it by one.  A batch restages the
    master's content at submit time ({!Lbq_core.Server.restage_cell}:
    ciphertexts only, any master encode dropped) and fences every
    affected shard's FIFO queue, where the shard repairs its own
    encode, so requests admitted before the call are answered from the
    old epoch and requests admitted after from the new one — each reply
    decodes against exactly the database its ticket was admitted under,
    never a torn shard. *)

(** Apply one batch of cell replacements [(idq, pois)] (see
    {!Lbq_core.Server.restage_cell} for per-cell validation).  Returns
    the new submitted epoch.  Raises [Invalid_argument] on an empty
    batch, on per-cell validation failure, or after {!shutdown}. *)
val submit_update : t -> (int * Lbq_geo.Poi.t list) list -> int

(** Epoch of the latest submitted batch (what new admissions record). *)
val epoch : t -> int

(** Batches fully landed on their shards so far; equals {!epoch} once
    the queues drain (e.g. after {!pump} or {!shutdown}). *)
val applied_epoch : t -> int

val ticket_tenant : ticket -> int
val ticket_seq : ticket -> int
val ticket_request : ticket -> request

(** The database epoch this ticket was admitted (and served) under. *)
val ticket_epoch : ticket -> int

(** [None] until completion. *)
val ticket_reply : ticket -> reply option

(** Submit-to-completion seconds; meaningful once completed. *)
val ticket_latency_s : ticket -> float

(** The sequential oracle: the reply the service must produce for this
    (tenant, seq, request), computed inline with no queues or workers.
    Concurrently served traffic is asserted byte-identical to it.  Stays
    in the library because the layered benchmark (perfbench/serve.ml)
    calls it.

    Precondition: no update in flight.  A PIR reference is computed from
    the shard's current state, not from a ticket's admission epoch, so
    between {!submit_update} and the shard's fence it returns the old
    epoch's bytes for a request the service answers from the new one.
    Drain first — {!pump} in [spawn:false] mode, {!shutdown}, or wait
    until [applied_epoch t = epoch t] — and compare only replies
    admitted at that epoch. *)
val respond_reference : t -> tenant:int -> seq:int -> request -> reply

(** Stop accepting, drain backlogs, join the worker domains.
    Idempotent. *)
val shutdown : t -> unit
