(* Primality testing: trial division, Miller–Rabin, and a
   Pocklington–Lehmer certificate for candidates whose n - 1 has a known
   factored part.  Deterministic witness sets cover everything below
   3.3 * 10^24; larger candidates use random bases drawn from the
   caller's byte source. *)

open Lbq_bignum

(* Primes below 1000, used for fast trial-division rejection. *)
let small_primes = Sieve.primes_below 1000

(* Deterministic Miller–Rabin witnesses valid for n < 3,317,044,064,679,887,385,961,981
   (Sorenson & Webster 2015). *)
let deterministic_bases = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37 ]

let deterministic_limit = Z.of_string "3317044064679887385961981"

type result = Prime | Composite | Probably_prime

(* One Miller–Rabin round with base [a] (1 < a < n - 1), n odd > 3.
   [sched] is the window schedule of the odd part d of n - 1, recoded
   ONCE per candidate and replayed for every base; [ctx] is a Montgomery
   context for n (n is odd here, and this loop dominates the PIR query
   time).  The whole round stays in Montgomery form: a^d is a window,
   the squaring chain x <- x^2 runs on windows, and each step compares
   canonical windows against [one_w] and [n1_w], the Montgomery forms
   of 1 and n - 1, so no step leaves the engine. *)
let mr_round ctx ~sched ~one_w ~n1_w ~s a =
  let x0 = Montgomery.pow_window ctx (Montgomery.to_window ctx a) sched in
  if x0 = one_w || x0 = n1_w then true
  else begin
    let x = ref x0 in
    let ok = ref false in
    let r = ref 1 in
    while (not !ok) && !r < s do
      x := Montgomery.sqr_window ctx !x;
      if !x = n1_w then ok := true;
      incr r
    done;
    !ok
  end

let decompose n =
  (* n - 1 = d * 2^s with d odd *)
  let n1 = Z.pred n in
  let rec go d s = if Z.is_odd d then d, s else go (Z.shift_right d 1) (s + 1) in
  go n1 0

let trial_division n =
  let rec go = function
    | [] -> Probably_prime
    | p :: rest ->
      let pz = Z.of_int p in
      if Z.equal n pz then Prime
      else if Z.is_zero (Z.rem n pz) then Composite
      else go rest
  in
  go small_primes

(* Main entry.  [rand] supplies bytes for random bases: 24 random
   Miller–Rabin rounds above the deterministic range.
   [trial:false] skips the trial-division pass — for candidates that a
   sieved search (see {!Primegen}) has already cleared of small factors,
   where re-dividing by every small prime would repeat work the segment
   sieve did with int arithmetic.  [metrics] ticks [Counters.mr_calls]
   once per candidate that actually reaches a Miller–Rabin
   exponentiation, so sieved and generate-and-test searches are
   measured identically. *)
let test ?(trial = true) ?(metrics = Lbq_metrics.Counters.null)
    ?rand (n : Z.t) : result =
  if Z.sign n <= 0 then Composite
  else if Z.lt n Z.two then Composite
  else if Z.equal n Z.two then Prime
  else if Z.is_even n then Composite
  else begin
    match (if trial then trial_division n else Probably_prime) with
    | (Prime | Composite) as r -> r
    | Probably_prime ->
      Lbq_metrics.Counters.mr_calls metrics 1;
      (* n has survived trial division by 2, so it is odd. *)
      let ctx = Montgomery.create n in
      let d, s = decompose n in
      (* Per-candidate precomputation shared by every round: d's window
         schedule and the Montgomery forms of 1 and n - 1. *)
      let sched = Wexp.recode (Z.to_nat d) in
      let n1 = Z.pred n in
      let one_w = Montgomery.one_window ctx in
      let n1_w = Montgomery.to_window ctx n1 in
      if Z.lt n deterministic_limit then begin
        let witnesses =
          List.filter (fun a -> Z.lt (Z.of_int a) n1) deterministic_bases
        in
        if
          List.for_all
            (fun a -> mr_round ctx ~sched ~one_w ~n1_w ~s (Z.of_int a))
            witnesses
        then Prime
        else Composite
      end
      else begin
        let rand =
          match rand with
          | Some r -> r
          | None -> invalid_arg "Primality.test: large candidate needs ~rand"
        in
        let n3 = Z.sub n (Z.of_int 3) in
        let rec go i =
          if i = 0 then Probably_prime
          else begin
            let a = Z.add Z.two (Z.random_below ~bound:n3 rand) in
            if mr_round ctx ~sched ~one_w ~n1_w ~s a then go (i - 1) else Composite
          end
        in
        go 24
      end
  end

let is_prime ?trial ?metrics ?rand n =
  match test ?trial ?metrics ?rand n with
  | Prime | Probably_prime -> true
  | Composite -> false

(* Pocklington–Lehmer with F = 2^i * p^j dividing n - 1 and F^2 > n.
   For a base a with Jacobi (a/n) = -1 put y = a^((n-1)/(2p)):
   - y^p = a^((n-1)/2) <> -1 is an Euler witness: n is composite;
   - y^p = -1 and y = -1 happens for a prime n when a is a p-th power
     residue, with probability about 1/p: that base proves nothing and
     the next non-residue is tried;
   - y^p = -1 and y <> -1 proves n prime.  a^((n-1)/2) = -1 modulo
     every prime power l^e dividing n, so the order of a mod l^e
     carries the full power of 2 in n - 1.  y^p = -1 with y <> -1
     gives y^2 <> 1 mod n, so a^((n-1)/p) = y^2 <> 1 mod some l^e, and
     that order carries the full power of p too.  l is prime to 2p, so
     F | l - 1.  Then n / l = 1 mod F and n / l < n / F < F force
     n = l.  (Plain Pocklington also asks gcd(y^2 - 1, n) = 1; the
     Euler condition on every prime factor makes that automatic.)
   Bases are the primes below 64.  A square n has no non-residue at
   all, so it always comes back undecided. *)
let pocklington_bases = List.filter (fun a -> a < 64) small_primes

let pocklington ?(metrics = Lbq_metrics.Counters.null) ~p ~f (n : Z.t) =
  let n1 = Z.pred n in
  if Z.is_even n || Z.leq n (Z.of_int 3) || Z.is_odd f || p < 3
     || not (Z.is_zero (Z.rem f (Z.of_int p)))
     || not (Z.is_zero (Z.rem n1 f))
     || Z.leq (Z.mul f f) n
  then invalid_arg "Primality.pocklington: needs 2p | F | n - 1, F^2 > n";
  let ctx = Montgomery.create n in
  let sched = Wexp.recode (Z.to_nat (Z.div n1 (Z.of_int (2 * p)))) in
  let verdict v =
    Lbq_metrics.Counters.mr_calls metrics 1;
    Some v
  in
  let rec go = function
    | [] -> None
    | a :: rest ->
      let a = Z.of_int a in
      if Z.geq a n1 then None
      else begin
        match Jacobi.symbol a n with
        | 0 -> verdict Composite
        | 1 -> go rest
        | _ ->
          let y = Montgomery.powm_sched ctx a sched in
          if not (Z.equal (Montgomery.powm ctx y (Z.of_int p)) n1) then
            verdict Composite
          else if Z.equal y n1 then go rest
          else verdict Prime
      end
  in
  go pocklington_bases
