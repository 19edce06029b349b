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
