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
    (microseconds); a cold one waits for the instance's in-flight build,
    or builds it synchronously when none is in flight.

    {b Determinism.}  The instance for (index [i], generation [k]) is a
    pure function of the pool seed: refill workers fork a child DRBG via
    [Drbg.split ~label:"i<i>/g<k>"] of a [Drbg.create ~domain:"lbq-keypool"
    ~seed] base, so any interleaving of workers and takes produces
    byte-identical instances to a sequential rebuild from the seed, each
    generation is built exactly once, and {!take} hands instances out in
    generation order, the pattern parallel OT serving uses.

    {b Updates.}  An instance depends only on the plan, [q_bits] and the
    seed, never on the database contents, so instances built before a
    POI update decode the updated cells after it: the pool needs no
    invalidation when the database changes. *)

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

    [seed] fixes every instance the pool will ever produce;
    [metrics] receives pool and prime-search counters. *)
val create :
  ?config:config -> ?domains:int ->
  ?metrics:Counters.t -> ?seed:string -> plan:Gr.plan -> q_bits:int ->
  unit -> t

val plan : t -> Gr.plan
val q_bits : t -> int
val capacity : t -> int

(** Fill every stripe to capacity and wait for it; on the worker pool
    when one is attached, otherwise inline.  Idempotent. *)
val prewarm : t -> unit

(** Pop the next prebuilt instance for [index] (its wire query is
    re-emitted alongside).  Warm: O(1) under the pool lock, and a refill
    sweep is scheduled across {e all} stripes whose lookahead fell to
    the watermark.  Cold: when a refill worker or a prewarm already
    holds the next generation's ticket the call waits for that build; otherwise the
    calling thread claims the ticket itself and builds the instance
    synchronously — identical bytes, Table IV latency.  Re-raises a
    failed refill; raises [Invalid_argument] on a bad index or after
    {!shutdown}, including a shutdown during the wait. *)
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

(** Prebuilt instances currently held, per index.  Hits, misses,
    refills and steals are counted in the [metrics] given to {!create}. *)
val depth : t -> int array
