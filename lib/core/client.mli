(** The querying user: locate, OT the credential, PIR the block, decrypt. *)

open Lbq_bignum
open Lbq_geo
module Ot = Lbq_ot.Ot
module Counters = Lbq_metrics.Counters
module Keypool = Lbq_cache.Keypool

(** Raised on malformed or tampered protocol data; the message names the
    failing stage. *)
exception Protocol_error of string

type t

(** [cache_cap] bounds the [reuse:true] per-cell instance cache (LRU
    eviction; default 8 entries). *)
val create :
  ?metrics:Counters.t -> ?seed:string -> ?cache_cap:int ->
  Server.public_info -> t

(** Entries currently held by the [reuse:true] instance cache (always
    [<= cache_cap]; exposed for the eviction tests). *)
val cache_size : t -> int

(** The counters this client increments (retries land here too). *)
val metrics : t -> Counters.t

(** Stage-1 result: the private-cell id and its decryption key. *)
type credential

val credential_idq : credential -> int
val credential_key : credential -> string

(** Which public cell contains the position (purely local). *)
val locate : t -> Coord.t -> Grid.cell

(** Stage-1 state is the underlying OT client state; it is exposed so the
    malicious-user example can call [Ot.Client.decode_at] on it. *)
type stage1 = Ot.Client.state

val stage1_query : t -> Grid.cell -> stage1 * Ot.query
val stage1_decode : t -> stage1 -> Ot.response -> credential

type stage2

(** [reuse:true] caches the phi-hiding instance per cell (LRU-bounded by
    [cache_cap]) and reuses it on later rounds for the same cell —
    "several more rounds very efficiently" (§VI) at the cost of letting
    the server link same-cell rounds that share a modulus.  [pool] takes
    a fresh prebuilt instance from a background {!Keypool} instead of
    searching for primes inline: rounds stay unlinkable (every round
    ships a fresh modulus) and a warm take costs microseconds.  The pool
    must have been built for this deployment's plan and [q_bits].
    Default: a fresh instance built inline per round. *)
val stage2_query :
  ?reuse:bool -> ?pool:Keypool.t -> t -> credential -> stage2 * (Z.t * Z.t)

(** Recover the block from the PIR reply, then {!decrypt_block} it. *)
val stage2_decode : t -> stage2 -> Z.t -> Poi.t list

(** Decrypt, authenticate and decode a cell's ciphertext block under the
    credential's key; dummy records are filtered out.  Raises
    {!Protocol_error} on tampering or key mismatch. *)
val decrypt_block : credential -> string -> Poi.t list
