(** Random prime generation.

    Every search is sieved and incremental: one random start, then a
    fixed stride, walked one {!Sieve.segment} at a time.  Each segment
    is sieved by the odd primes below 2{^16} (and below the smallest
    candidate), one Eratosthenes pass per prime, and only survivors
    reach Miller–Rabin (trial division skipped) or, for the semi-safe
    [Q], a Pocklington certificate.  [metrics] exposes the funnel
    through {!Counters}: candidates examined ([prime_attempts]),
    candidates the sieve killed without bignum arithmetic
    ([sieve_rejects]), and candidates that reached an exponentiation,
    Miller–Rabin or certificate ([mr_calls], once per candidate). *)

open Lbq_bignum
module Counters = Lbq_metrics.Counters

(** Random prime with exactly [bits] bits. *)
val random_prime : ?metrics:Counters.t -> bits:int -> (int -> string) -> Z.t

(** Semi-safe prime search: returns [(q, Q)] with [q] a random prime of
    [q_bits] bits and [Q = 2*q*multiple + 1] prime.  With
    [multiple = pi] this is exactly the Q0 the Gentry–Ramzan query needs;
    with [multiple = 1] it is Q1.  This search dominates the PIR query
    time (Table IV).  The walk is joint: both [q] and [Q] are sieved in
    the same segment before either sees an exponentiation, so a [q]
    whose [Q] has a small factor costs none at all.  When
    [F = 2*multiple] is [2{^i}·p{^j}] for one odd prime [p < 2{^16}]
    and [F{^2}] exceeds every [Q] the walk can reach (so every
    Gentry–Ramzan slot [pi] of at least [q_bits] bits), each [Q]
    gets one {!Primality.pocklington} certificate instead of
    Miller–Rabin, and the returned [Q] is proven prime.  Otherwise
    (Q1, small multiples, or no base decides) [Q] goes through
    Miller–Rabin as [q] does. *)
val semi_safe :
  ?metrics:Counters.t -> q_bits:int -> multiple:Z.t -> (int -> string) -> Z.t * Z.t

(** [(k, p)] with [p = 2*k*q + 1] prime of [p_bits] bits, for a Schnorr
    group with subgroup order [q].  Incremental in [k] (stride [2q]),
    sieving the form [1 + 2q*k]. *)
val schnorr_modulus :
  ?metrics:Counters.t -> p_bits:int -> q:Z.t -> (int -> string) -> Z.t * Z.t
