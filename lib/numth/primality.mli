(** Primality testing.

    Deterministic Miller–Rabin witness sets below 3.3e24; random bases
    (from a caller-supplied byte source) above.  {!pocklington} proves
    or refutes primality outright when [n - 1] has a large enough
    factored part. *)

open Lbq_bignum

type result = Prime | Composite | Probably_prime

(** Full test.  [rand] is required for candidates above the deterministic
    range; [rounds] random Miller–Rabin rounds are then used (default 24,
    error probability <= 4{^-24}).  [trial:false] skips the leading
    trial-division pass — for candidates a sieved search has already
    cleared of small factors.  [metrics] ticks [Counters.mr_calls] once
    per candidate reaching a Miller–Rabin exponentiation (and
    {!pocklington} once per certificate verdict). *)
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

(** Pocklington–Lehmer certificate.  [pocklington ~p ~f n] requires an
    odd prime [p] and [f = 2{^i}·p{^j}] ([i, j >= 1], no other prime
    factor: the caller vouches for this) with [f | n - 1] and
    [f{^2} > n].  One exponentiation [y = a{^(n-1)/(2p)}] per
    Jacobi non-residue [a] among the primes below 64 gives
    [Some Prime] (proven, no error probability) or [Some Composite]
    (proven); [None] means no base decided (every [n] that is a square
    lands here) and the caller falls back to Miller–Rabin.  [metrics]
    ticks [Counters.mr_calls] once per [Some] verdict, so a candidate
    counts once whichever test settles it.  Raises [Invalid_argument]
    when [n] is even or [<= 3], [p < 3], or [2p | f | n - 1] or
    [f{^2} > n] fails. *)
val pocklington :
  ?metrics:Lbq_metrics.Counters.t -> p:int -> f:Z.t -> Z.t -> result option

(** One Fermat check with an explicit base (paper mentions the Fermat test
    as an alternative for the semi-safe prime search).  [n] must be odd
    and greater than 3; raises [Invalid_argument] otherwise. *)
val fermat_witness : Z.t -> Z.t -> bool

(** Probabilistic Fermat test with random bases. *)
val fermat : ?rounds:int -> rand:(int -> string) -> Z.t -> bool
