(** Primality testing.

    Deterministic Miller–Rabin witness sets below 3.3e24; random bases
    (from a caller-supplied byte source) above. *)

open Lbq_bignum

type result = Prime | Composite | Probably_prime

(** Full test.  [rand] is required for candidates above the deterministic
    range; [rounds] random Miller–Rabin rounds are then used (default 24,
    error probability <= 4{^-24}).  [trial:false] skips the leading
    trial-division pass — for candidates a sieved search has already
    cleared of small factors.  [metrics] ticks [Counters.mr_calls] once
    per candidate reaching a Miller–Rabin exponentiation. *)
val test :
  ?rounds:int ->
  ?trial:bool ->
  ?metrics:Lbq_metrics.Counters.t ->
  ?rand:(int -> string) ->
  Z.t ->
  result

(** [is_prime n] treats [Probably_prime] as prime. *)
val is_prime :
  ?rounds:int ->
  ?trial:bool ->
  ?metrics:Lbq_metrics.Counters.t ->
  ?rand:(int -> string) ->
  Z.t ->
  bool

(** One Fermat check with an explicit base (paper mentions the Fermat test
    as an alternative for the semi-safe prime search).  [n] must be odd
    and greater than 3; raises [Invalid_argument] otherwise. *)
val fermat_witness : Z.t -> Z.t -> bool

(** Probabilistic Fermat test with random bases. *)
val fermat : ?rounds:int -> rand:(int -> string) -> Z.t -> bool
