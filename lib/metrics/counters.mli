(** Operation and traffic counters backing the Table I / Table II
    reproduction: protocol code increments them at each modular
    exponentiation / multiplication / message it performs, and the bench
    harness compares the totals with the paper's closed forms.

    Counters are domain-safe: cells are [Atomic.t], so handlers running
    on the {!Lbq_pool.Pool} Domains pool can share one [t] without
    losing increments.  Readers take a {!snapshot}. *)

type t

(** Plain-integer view of a counter set at one moment.  Each field is
    read atomically; the record as a whole is quiescently consistent
    (exact once concurrent handlers have finished). *)
type snapshot = {
  user_exp : int;
  server_exp : int;
  user_mult : int;
  server_mult : int;
  user_bytes : int;
  server_bytes : int;
  retries : int;
  drops : int;
  rejects : int;
  prime_attempts : int;
  sieve_rejects : int;
  mr_calls : int;
  pool_hits : int;
  pool_misses : int;
  pool_refills : int;
  pool_steals : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  served : int;
  sheds : int;
  batch_served : int;
  batch_size_sum : int;
  update_applied : int;
  update_blocks : int;
  epoch_bumps : int;
}

val create : unit -> t
val reset : t -> unit
val snapshot : t -> snapshot

val user_exp : t -> int -> unit
val server_exp : t -> int -> unit
val user_mult : t -> int -> unit
val server_mult : t -> int -> unit
val user_bytes : t -> int -> unit
val server_bytes : t -> int -> unit

(** Transport-resilience counters: exchange attempts repeated after a
    fault, frames lost/mangled in transit, and requests refused by
    server-side validation. *)
val retries : t -> int -> unit

val drops : t -> int -> unit
val rejects : t -> int -> unit

(** Prime-search counters (the Table IV query-setup cost): candidates
    examined, candidates marked by the small-prime segment sieve (no
    bignum arithmetic per candidate), and candidates that went on to an
    exponentiation — a Miller–Rabin test or a Pocklington certificate,
    counted once per candidate either way. *)
val prime_attempts : t -> int -> unit

val sieve_rejects : t -> int -> unit
val mr_calls : t -> int -> unit

(** Keypool (offline/online split) counters: takes served from a warm
    stripe, takes that found their stripe empty, instances built by the
    background refill workers, and build tickets the foreground claimed
    for itself because no prebuilt instance was ready. *)
val pool_hits : t -> int -> unit

val pool_misses : t -> int -> unit
val pool_refills : t -> int -> unit
val pool_steals : t -> int -> unit

(** Per-cell instance-cache (LRU) counters: reuse hits, misses that paid
    a fresh instance build, and entries evicted by the capacity cap. *)
val cache_hits : t -> int -> unit

val cache_misses : t -> int -> unit
val cache_evictions : t -> int -> unit

(** Service-layer counters: requests completed by the sharded worker
    domains, and requests refused by admission control because a shard's
    bounded queue was at its high watermark. *)
val served : t -> int -> unit

val sheds : t -> int -> unit

(** Batch-serving counters: drained batches dispatched by worker domains
    and the total requests those batches carried, so
    [batch_size_sum / batch_served] is the mean drained-batch size. *)
val batch_served : t -> int -> unit

val batch_size_sum : t -> int -> unit

(** Live-update counters: update batches applied to a serving database,
    individual blocks those batches rewrote, and epoch advances they
    caused. *)
val update_applied : t -> int -> unit

val update_blocks : t -> int -> unit
val epoch_bumps : t -> int -> unit

val pp : Format.formatter -> t -> unit

(** {2 GC pressure}

    Allocated-words snapshots from [Gc.quick_stat], so every bench row
    can carry the allocation cost of the loop it measured and hot-loop
    allocation regressions show up in the trajectory. *)

type gc_words = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
}

val gc_words : unit -> gc_words

(** Words allocated since [since] (current snapshot minus [since]). *)
val gc_delta : since:gc_words -> gc_words

(** Shared sink for unmeasured runs.  Increment calls on [null] are
    no-ops (guarded by physical equality), so unmeasured callers neither
    race on nor pay for a shared [t]. *)
val null : t
