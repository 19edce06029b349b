(** Small-prime machinery (Eratosthenes), and the segment sieve under
    every prime search of {!Primegen}. *)

open Lbq_bignum

(** All primes strictly below [limit], ascending. *)
val primes_below : int -> int list

(** The first [k] primes that are [>= from] (default 2), ascending.
    The PIR database uses "the first 225 primes starting at 3". *)
val first_primes : ?from:int -> int -> int list

(** {2 Segment sieve}

    A prime search walks [x, x + step, x + 2*step, ...] and sends to a
    primality test only the values that no small prime divides.
    {!segment} sieves one window of that walk with one Eratosthenes pass
    per sieving prime, allocating nothing. *)

(** The sieving bound: {!segment} uses odd primes below [limit] = 2{^16}. *)
val limit : int

(** A linear form [add + mul * x] of the walk value [x], sieved by the
    odd primes [r < min cap limit].  The caller keeps [cap] at or below
    the form's smallest value over the walk, so a marked position always
    has a proper small factor.  [0 <= add < 2{^30}]. *)
type form = { cap : int; add : int; mul : Nat.t }

(** [segment marks ~start ~step ~len forms] clears [marks.[0 .. len-1]]
    and sets [marks.[j]] to ['\001'] exactly when some odd prime
    [r < min f.cap limit] divides [f.add + f.mul * (start + step * j)]
    for some form [f].  [start >= 0].  Raises [Invalid_argument] when
    [len] is negative or exceeds [Bytes.length marks], or [step <= 0]. *)
val segment :
  Bytes.t -> start:Z.t -> step:int -> len:int -> form list -> unit

(** Smallest odd prime below {!limit} that divides the argument. *)
val least_odd_factor : Z.t -> int option
