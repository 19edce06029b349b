(** Background phi-hiding instance pool — the offline half of the
    offline/online query split (paper §VI: "using the same set-up, the
    user can execute several more rounds very efficiently").

    A stage-2 query's cost is dominated by the semi-safe primality
    search that builds the phi-hiding instance (Table IV).  The keypool
    pre-builds complete, decode-ready instances — modulus [N = Q0·Q1]
    with its trapdoor factorisation, quasi-generator [g], Montgomery
    context, and the Pohlig–Hellman solver tables ({!Lbq_pir.Gr.Client.prepare})
    — on background {!Lbq_pool.Pool} domains, striped per prime-power
    index [pi_i] so every one of the plan's [t] indices is stocked
    uniformly and pool maintenance is independent of which cell the user
    actually queries.  A warm {!take} is a ring-buffer pop
    (microseconds); a cold one falls back to building the instance
    synchronously.

    {b Determinism.}  The instance for (index [i], generation [k]) is a
    pure function of the pool seed: refill workers fork a child DRBG via
    [Drbg.split ~label:"i<i>/g<k>"], so any interleaving of workers —
    or the synchronous fallback racing them — produces byte-identical
    instances to a sequential reference run ({!build_reference}), and
    {!take} hands instances out in generation order.  The same pattern
    PR 3 used for parallel OT serving. *)

open Lbq_bignum
module Gr = Lbq_pir.Gr
module Counters = Lbq_metrics.Counters

type t

(** Pool behaviour knobs.

    [capacity]: prebuilt instances kept per index (ring-buffer size).
    [low_watermark]: refill a stripe back to capacity once the
    generations scheduled ahead of the next take fall to this many or
    fewer.  0 refills only when a stripe is empty. *)
type config = { capacity : int; low_watermark : int }

(** [capacity = 2], [low_watermark = 1]. *)
val default_config : config

(** [create ~plan ~q_bits ()] builds an empty pool for one deployment's
    prime-power plan and cofactor width.

    [domains] spawns a {!Lbq_pool.Pool} of that many workers for
    background refill, shut down with the keypool.  Without it, the
    pool never refills in the background: every cold take builds
    synchronously and only {!prewarm} stocks it.

    [seed] fixes every instance the pool will ever produce (see
    {!build_reference}); [metrics] receives pool and prime-search
    counters. *)
val create :
  ?config:config -> ?domains:int ->
  ?metrics:Counters.t -> ?seed:string -> plan:Gr.plan -> q_bits:int ->
  unit -> t

val plan : t -> Gr.plan
val q_bits : t -> int
val capacity : t -> int

(** {2 Epoch pinning}

    Every stocked instance is pinned to the deployment epoch its build
    ticket was claimed under (0 until {!set_epoch}).  A {!take} that
    reaches an instance pinned to an older epoch evicts it — counted in
    [stale_evictions] and [Counters.pool_stale_evictions] — and rebuilds
    that generation in the foreground under the current epoch, so a
    dead-epoch instance is never silently served. *)

val epoch : t -> int

(** Re-pin the pool; stocked instances with older pins are lazily
    evicted by the takes that reach them.  Raises [Invalid_argument] on
    a negative or backwards epoch. *)
val set_epoch : t -> int -> unit

(** Fill every stripe to capacity and wait for it; on the worker pool
    when one is attached, otherwise inline.  Idempotent. *)
val prewarm : t -> unit

(** Pop the next prebuilt instance for [index] (its wire query is
    re-emitted alongside).  Warm: O(1) under the pool lock, and a refill
    sweep is scheduled across {e all} stripes whose lookahead fell to
    the watermark.  Cold: the calling thread claims the next generation
    ticket itself and builds the instance synchronously — identical
    bytes, Table IV latency.  Raises [Invalid_argument] on a bad index
    or after {!shutdown}. *)
val take : t -> index:int -> Gr.Client.state * (Z.t * Z.t)

(** Wait until no refill job is queued or running. *)
val drain : t -> unit

(** Stop serving, wait for in-flight refills, and shut down the worker
    pool.  Idempotent;
    {!take} and {!prewarm} raise afterwards. *)
val shutdown : t -> unit

(** [with_pool ... f] runs [f] over a fresh pool and always shuts it
    down. *)
val with_pool :
  ?config:config -> ?domains:int ->
  ?metrics:Counters.t -> ?seed:string -> plan:Gr.plan -> q_bits:int ->
  (t -> 'a) -> 'a

(** Monotonic totals since [create], plus the current per-index depth. *)
type stats = {
  hits : int;        (** takes served from a warm stripe *)
  misses : int;      (** takes that found their stripe empty *)
  refills : int;     (** instances stored by background workers *)
  steals : int;      (** tickets the foreground claimed and built itself *)
  stale_evictions : int;
    (** stocked instances discarded on take for carrying a dead epoch *)
  depth : int array; (** prebuilt instances currently held, per index *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

(** The sequential reference oracle: the instance the pool {e must}
    produce for (seed, index, generation), built inline with no pool at
    all.  Tests and [bench keypool] assert pooled refill output is
    byte-identical to this, for any worker count and interleaving. *)
val build_reference :
  ?metrics:Counters.t -> seed:string -> plan:Gr.plan -> q_bits:int ->
  index:int -> generation:int -> unit -> Gr.Client.state * (Z.t * Z.t)
