(* Random prime generation, including the "semi-safe" primes
   Q0 = 2*q0*pi + 1 and Q1 = 2*q1 + 1 that the Gentry–Ramzan PIR query
   needs (paper §VI-B) and Schnorr-group moduli p = 2*k*q + 1.

   All searches are SIEVED and INCREMENTAL: one random start, then a
   fixed stride, with a {!Sieve.wheel} of small-prime residues updated
   by int additions per step.  A candidate reaches Miller–Rabin only
   after the wheel clears it of every small factor, and the test then
   skips its own trial-division pass ([~trial:false]) — the wheel
   already did that work without a single bignum division.  The seed
   generate-and-test loop lives in the test-only oracle library, as
   the `bench ot` baseline for the Miller–Rabin call-count comparison. *)

open Lbq_bignum
module Counters = Lbq_metrics.Counters

(* Sieving primes for candidates no smaller than [floor_bits] bits: odd
   primes strictly below the smallest possible candidate, so a zero
   residue always means a proper factor (never the candidate itself). *)
let sieving_primes ~floor_bits =
  let bound = if floor_bits >= 11 then 1000 else 1 lsl (floor_bits - 1) in
  List.filter (fun p -> p > 2 && p < bound) (Sieve.primes_below 1000)

let zrem_int c p = Z.to_int (Z.rem c (Z.of_int p))

(* Random prime with exactly [bits] bits (top and bottom bits forced).
   One random start per width window; then an odd stride under the
   wheel, restarting when the walk would leave the [bits]-bit range. *)
let random_prime ?(metrics = Counters.null) ~bits (rand : int -> string) : Z.t =
  if bits < 2 then invalid_arg "Primegen.random_prime: bits < 2";
  let primes = sieving_primes ~floor_bits:bits in
  let start () =
    let c = Z.random_bits ~bits rand in
    (* Force the top bit for exact width and the bottom bit for oddness. *)
    let c = Z.add c (Z.shift_left Z.one (bits - 1)) in
    let c = if Z.is_even c then Z.succ c else c in
    if Z.numbits c > bits then Z.pred (Z.shift_left Z.one bits) else c
  in
  let rec search cand wheel =
    if Z.numbits cand > bits then restart ()
    else begin
      Counters.prime_attempts metrics 1;
      if Sieve.wheel_divisible wheel then begin
        Counters.sieve_rejects metrics 1;
        step cand wheel
      end
      else if Primality.is_prime ~trial:false ~metrics ~rand cand then cand
      else step cand wheel
    end
  and step cand wheel =
    Sieve.wheel_advance wheel;
    search (Z.add cand Z.two) wheel
  and restart () =
    let c = start () in
    let wheel =
      Sieve.wheel_make ~primes ~residue:(zrem_int c) ~step:(fun _ -> 2)
    in
    search c wheel
  in
  restart ()

(* Semi-safe prime: structure Q = 2*q*multiple + 1 with [q] a random
   prime of [q_bits] bits and Q prime.  Returns (q, Q).  This is the
   expensive search that dominates the PIR query time in Table IV.

   The walk is JOINT: q advances by 2, so Q advances by 4*multiple, and
   each candidate pair runs both wheels first.  Miller-Rabin fires only
   when neither wheel finds a factor — on random ground that prunes the
   order of 80% of the pairs for free. *)
let semi_safe ?(metrics = Counters.null) ~q_bits ~(multiple : Z.t)
    (rand : int -> string) : Z.t * Z.t =
  if Z.sign multiple <= 0 then invalid_arg "Primegen.semi_safe: multiple <= 0";
  if q_bits < 2 then invalid_arg "Primegen.semi_safe: q_bits < 2";
  let q_primes = sieving_primes ~floor_bits:q_bits in
  (* Smallest Q the walk can visit: 2 * 2^(q_bits-1) * multiple + 1. *)
  let q_min = Z.succ (Z.shift_left (Z.mul (Z.shift_left Z.one (q_bits - 1)) multiple) 1) in
  let cand_primes =
    List.filter
      (fun p -> p > 2 && Z.lt (Z.of_int p) q_min)
      (Sieve.primes_below 1000)
  in
  let big_q q = Z.succ (Z.shift_left (Z.mul q multiple) 1) in
  let start () =
    let c = Z.random_bits ~bits:q_bits rand in
    let c = Z.add c (Z.shift_left Z.one (q_bits - 1)) in
    let c = if Z.is_even c then Z.succ c else c in
    if Z.numbits c > q_bits then Z.pred (Z.shift_left Z.one q_bits) else c
  in
  let rec search q qw cw =
    if Z.numbits q > q_bits then restart ()
    else begin
      Counters.prime_attempts metrics 1;
      if Sieve.wheel_divisible qw || Sieve.wheel_divisible cw then begin
        Counters.sieve_rejects metrics 1;
        step q qw cw
      end
      else if not (Primality.is_prime ~trial:false ~metrics ~rand q) then
        step q qw cw
      else begin
        let cand = big_q q in
        if Primality.is_prime ~trial:false ~metrics ~rand cand then (q, cand)
        else step q qw cw
      end
    end
  and step q qw cw =
    Sieve.wheel_advance qw;
    Sieve.wheel_advance cw;
    search (Z.add q Z.two) qw cw
  and restart () =
    let q0 = start () in
    let qw =
      Sieve.wheel_make ~primes:q_primes ~residue:(zrem_int q0)
        ~step:(fun _ -> 2)
    in
    let c0 = big_q q0 in
    (* q += 2 shifts Q by 4 * multiple; the increment is reduced mod
       each sieving prime once, here. *)
    let cw =
      Sieve.wheel_make ~primes:cand_primes ~residue:(zrem_int c0)
        ~step:(fun p -> 4 * zrem_int multiple p mod p)
    in
    search q0 qw cw
  in
  restart ()

(* Schnorr-style modulus: prime p = 2*k*q + 1 for a given prime q, with
   p of [p_bits] bits.  Returns (k, p).  Incremental in k: k += 1 moves
   p by the fixed stride 2q, one wheel advance per step. *)
let schnorr_modulus ?(metrics = Counters.null) ~p_bits ~(q : Z.t)
    (rand : int -> string) : Z.t * Z.t =
  let q_bits = Z.numbits q in
  if p_bits < q_bits + 2 then invalid_arg "Primegen.schnorr_modulus: p_bits too small";
  let k_bits = p_bits - q_bits - 1 in
  let p_min = Z.shift_left Z.one (p_bits - 1) in
  let primes =
    List.filter
      (fun p -> p > 2 && Z.lt (Z.of_int p) p_min)
      (Sieve.primes_below 1000)
  in
  let stride = Z.shift_left q 1 in
  let cand_of k = Z.succ (Z.mul k stride) in
  let rec search k cand wheel =
    if Z.numbits cand <> p_bits then restart ()
    else begin
      Counters.prime_attempts metrics 1;
      if Sieve.wheel_divisible wheel then begin
        Counters.sieve_rejects metrics 1;
        step k cand wheel
      end
      else if Primality.is_prime ~trial:false ~metrics ~rand cand then (k, cand)
      else step k cand wheel
    end
  and step k cand wheel =
    Sieve.wheel_advance wheel;
    search (Z.succ k) (Z.add cand stride) wheel
  and restart () =
    let k = Z.random_bits ~bits:k_bits rand in
    let k = Z.add k (Z.shift_left Z.one (k_bits - 1)) in
    let cand = cand_of k in
    let wheel =
      Sieve.wheel_make ~primes ~residue:(zrem_int cand)
        ~step:(zrem_int stride)
    in
    search k cand wheel
  in
  restart ()
