(** Random prime generation.

    Every search is sieved and incremental: one random start, then a
    fixed stride under a {!Sieve.wheel} of small-prime residues, with
    Miller–Rabin (trial division skipped) only on wheel survivors.
    [metrics] exposes the funnel through {!Counters}: candidates
    examined ([prime_attempts]), candidates the wheel killed without
    bignum arithmetic ([sieve_rejects]), and candidates that reached a
    Miller–Rabin exponentiation ([mr_calls]). *)

open Lbq_bignum
module Counters = Lbq_metrics.Counters

(** Random prime with exactly [bits] bits. *)
val random_prime : ?metrics:Counters.t -> bits:int -> (int -> string) -> Z.t

(** Semi-safe prime search: returns [(q, Q)] with [q] a random prime of
    [q_bits] bits and [Q = 2*q*multiple + 1] prime.  With
    [multiple = pi] this is exactly the Q0 the Gentry–Ramzan query needs;
    with [multiple = 1] it is Q1.  This search dominates the PIR query
    time (Table IV).  The walk is joint: both [q] and [Q] are wheel-
    sieved before either sees a Miller–Rabin test, so a [q] whose [Q]
    has a small factor costs no exponentiation at all. *)
val semi_safe :
  ?metrics:Counters.t -> q_bits:int -> multiple:Z.t -> (int -> string) -> Z.t * Z.t

(** [(k, p)] with [p = 2*k*q + 1] prime of [p_bits] bits, for a Schnorr
    group with subgroup order [q].  Incremental in [k] (stride [2q]). *)
val schnorr_modulus :
  ?metrics:Counters.t -> p_bits:int -> q:Z.t -> (int -> string) -> Z.t * Z.t
