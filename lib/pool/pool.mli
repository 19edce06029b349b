(** Fixed-size worker pool on OCaml 5 Domains.

    Stage-2 queries are independent single exponentiations, so the
    paper's §VI throughput remedy — parallel processing — maps onto one
    worker domain per in-flight query: {!Lbq_net.Service} runs one
    long-lived worker per shard on it, and {!Lbq_cache.Keypool} its
    background refills. *)

type t

(** Spawn the workers.  [domains] defaults to
    [min 4 (recommended_domain_count - 1)], floored at 1; values above
    the machine's core count are allowed (oversubscription). *)
val create : ?domains:int -> unit -> t

(** Number of worker domains. *)
val size : t -> int

(** Enqueue one job.  Raises [Invalid_argument] after {!shutdown}. *)
val submit : t -> (unit -> unit) -> unit

(** [map t f inputs] applies [f] to every input concurrently and returns
    the results in input order.  All inputs are attempted even when some
    fail; the first exception raised by a job is re-raised (with its
    backtrace) once all jobs have finished, so the pool stays usable. *)
val map : t -> ('a -> 'b) -> 'a array -> 'b array

(** Drain outstanding jobs, then stop and join the workers.  Idempotent. *)
val shutdown : t -> unit

(** [with_pool ?domains f] runs [f] over a fresh pool and always shuts it
    down, even when [f] raises. *)
val with_pool : ?domains:int -> (t -> 'a) -> 'a
