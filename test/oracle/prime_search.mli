(** The seed revision's generate-and-test prime searches: a fresh random
    candidate per attempt, full trial division plus Miller–Rabin on each.
    The [bench ot] baseline for the sieved, incremental searches of
    {!Lbq_numth.Primegen}, compared by Miller–Rabin call count and
    latency.  [metrics] ticks [prime_attempts] per candidate, and
    {!Lbq_numth.Primality} ticks [mr_calls]. *)

open Lbq_bignum

(** Random prime with exactly [bits] bits. *)
val random_prime :
  ?metrics:Lbq_metrics.Counters.t -> bits:int -> (int -> string) -> Z.t

(** [(q, Q)] with [q] a random [q_bits]-bit prime and
    [Q = 2·q·multiple + 1] prime. *)
val semi_safe :
  ?metrics:Lbq_metrics.Counters.t -> q_bits:int -> multiple:Z.t ->
  (int -> string) -> Z.t * Z.t

(** The previous revision's sieved walks, kept as the walk oracle: the
    same start draws and strides as {!Lbq_numth.Primegen}, a wheel of
    residues modulo the odd primes below 1000 updated by int additions,
    and Miller–Rabin on every survivor (no certificate).  For one DRBG
    seed they return the same first hit as {!Lbq_numth.Primegen} unless
    a walk restarts, because the two spend the byte source differently
    on Miller–Rabin bases. *)
module Wheel : sig
  val random_prime :
    ?metrics:Lbq_metrics.Counters.t -> bits:int -> (int -> string) -> Z.t

  val semi_safe :
    ?metrics:Lbq_metrics.Counters.t -> q_bits:int -> multiple:Z.t ->
    (int -> string) -> Z.t * Z.t

  val schnorr_modulus :
    ?metrics:Lbq_metrics.Counters.t -> p_bits:int -> q:Z.t ->
    (int -> string) -> Z.t * Z.t
end
