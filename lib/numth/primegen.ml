(* Random prime generation, including the "semi-safe" primes
   Q0 = 2*q0*pi + 1 and Q1 = 2*q1 + 1 that the Gentry–Ramzan PIR query
   needs (paper §VI-B) and Schnorr-group moduli p = 2*k*q + 1.

   All searches are SIEVED and INCREMENTAL: one random start, then a
   fixed stride, walked one {!Sieve.segment} at a time.  Each segment is
   cleared of every value with an odd factor below 2^16 by one
   Eratosthenes pass per sieving prime, so a candidate reaches a
   primality test only when no small prime divides it, and the test
   then skips its own trial-division pass ([~trial:false]).  The seed
   generate-and-test loops and the small-prime wheel walk this sieve
   replaced live in the test-only oracle library. *)

open Lbq_bignum
module Counters = Lbq_metrics.Counters

(* Sieving cap for a form whose smallest value over the walk is [least]:
   every sieving prime lies below it, so a mark always means a proper
   factor (never the candidate itself). *)
let cap_below least =
  if Z.numbits least > 17 then Sieve.limit else Z.to_int least

(* Segment length: a power of two near twice the expected walk [steps]
   (about [bits * ln 2 / 2] odd steps per prime of [bits] bits), so most
   searches sieve a single segment. *)
let marks_for steps =
  let rec pow2 n =
    if float_of_int n >= 2. *. steps || n >= 1 lsl 15 then n else pow2 (2 * n)
  in
  Bytes.create (pow2 64)

let prime_gap bits = 0.35 *. float_of_int bits

(* The walk x = start, start + step, ... <= last, sieved a segment at a
   time.  [prime_attempts] ticks per value examined and [sieve_rejects]
   per marked one; every unmarked value goes to [hit], and its first
   [Some] ends the walk.  [None]: the walk passed [last]. *)
let walk ~metrics ~marks ~forms ~step ~last start hit =
  let rec segment x0 =
    if Z.gt x0 last then None
    else begin
      let room = Z.div (Z.sub last x0) (Z.of_int step) in
      let len =
        if Z.numbits room > 30 then Bytes.length marks
        else min (Bytes.length marks) (Z.to_int room + 1)
      in
      Sieve.segment marks ~start:x0 ~step ~len forms;
      let rec scan j =
        if j = len then segment (Z.add x0 (Z.of_int (step * len)))
        else begin
          Counters.prime_attempts metrics 1;
          if Bytes.get marks j <> '\000' then begin
            Counters.sieve_rejects metrics 1;
            scan (j + 1)
          end
          else
            match hit (Z.add x0 (Z.of_int (step * j))) with
            | Some _ as found -> found
            | None -> scan (j + 1)
        end
      in
      scan 0
    end
  in
  segment start

(* The form x itself. *)
let identity ~least = { Sieve.cap = cap_below least; add = 0; mul = Nat.one }

(* Random start of [bits] bits, top bit and bottom bit forced. *)
let odd_start ~bits rand =
  let c = Z.random_bits ~bits rand in
  let c = Z.add c (Z.shift_left Z.one (bits - 1)) in
  let c = if Z.is_even c then Z.succ c else c in
  if Z.numbits c > bits then Z.pred (Z.shift_left Z.one bits) else c

(* Random prime with exactly [bits] bits (top and bottom bits forced).
   One random start per width window; then an odd stride under the
   sieve, restarting when the walk would leave the [bits]-bit range. *)
let random_prime ?(metrics = Counters.null) ~bits (rand : int -> string) : Z.t =
  if bits < 2 then invalid_arg "Primegen.random_prime: bits < 2";
  let forms = [ identity ~least:(Z.shift_left Z.one (bits - 1)) ] in
  let last = Z.pred (Z.shift_left Z.one bits) in
  let marks = marks_for (prime_gap bits) in
  let test c =
    if Primality.is_prime ~trial:false ~metrics ~rand c then Some c else None
  in
  let rec restart () =
    match walk ~metrics ~marks ~forms ~step:2 ~last (odd_start ~bits rand) test with
    | Some p -> p
    | None -> restart ()
  in
  restart ()

(* Pocklington set-up for Q = 2*q*multiple + 1: [Some (p, F)] when
   F = 2*multiple is 2^i * p^j for one odd prime p < 2^16 and F^2
   exceeds the largest Q the walk can reach, [top]; then every Q
   candidate is settled by one certificate exponentiation. *)
let certificate ~multiple ~top =
  let f = Z.shift_left multiple 1 in
  if Z.leq (Z.mul f f) top then None
  else begin
    let rec odd_part m = if Z.is_even m then odd_part (Z.shift_right m 1) else m in
    let m = odd_part multiple in
    match Sieve.least_odd_factor m with
    | None -> None
    | Some p ->
      let pz = Z.of_int p in
      let rec strip m =
        let d, r = Z.div_rem m pz in
        if Z.is_zero r then strip d else m
      in
      if Z.equal (strip m) Z.one then Some (p, f) else None
  end

(* Semi-safe prime: structure Q = 2*q*multiple + 1 with [q] a random
   prime of [q_bits] bits and Q prime.  Returns (q, Q).  This is the
   expensive search that dominates the PIR query time in Table IV.

   The walk is JOINT: q advances by 2, so Q advances by 4*multiple, and
   one segment sieve marks both the q and the Q values with a small
   factor.  A q survivor gets Miller–Rabin; when q is prime its Q gets
   the Pocklington certificate if [certificate] applies (one
   exponentiation, a proof either way) and Miller–Rabin otherwise. *)
let semi_safe ?(metrics = Counters.null) ~q_bits ~(multiple : Z.t)
    (rand : int -> string) : Z.t * Z.t =
  if Z.sign multiple <= 0 then invalid_arg "Primegen.semi_safe: multiple <= 0";
  if q_bits < 2 then invalid_arg "Primegen.semi_safe: q_bits < 2";
  let big_q q = Z.succ (Z.shift_left (Z.mul q multiple) 1) in
  let q_least = Z.shift_left Z.one (q_bits - 1) in
  let last = Z.pred (Z.shift_left Z.one q_bits) in
  let forms =
    [ identity ~least:q_least;
      { Sieve.cap = cap_below (big_q q_least); add = 1;
        mul = Z.to_nat (Z.shift_left multiple 1) } ]
  in
  let marks =
    marks_for (prime_gap q_bits *. prime_gap (Z.numbits (big_q last)))
  in
  let cert = certificate ~multiple ~top:(big_q last) in
  let big_prime cand =
    let mr () = Primality.is_prime ~trial:false ~metrics ~rand cand in
    match cert with
    | None -> mr ()
    | Some (p, f) -> (
      match Primality.pocklington ~metrics ~p ~f cand with
      | Some v -> v = Primality.Prime
      | None -> mr ())
  in
  let test q =
    if not (Primality.is_prime ~trial:false ~metrics ~rand q) then None
    else begin
      let cand = big_q q in
      if big_prime cand then Some (q, cand) else None
    end
  in
  let rec restart () =
    match walk ~metrics ~marks ~forms ~step:2 ~last (odd_start ~bits:q_bits rand) test with
    | Some hit -> hit
    | None -> restart ()
  in
  restart ()

(* Schnorr-style modulus: prime p = 2*k*q + 1 for a given prime q, with
   p of [p_bits] bits.  Returns (k, p).  Incremental in k: the walk is
   over k with step 1, sieving the form 1 + 2q*k. *)
let schnorr_modulus ?(metrics = Counters.null) ~p_bits ~(q : Z.t)
    (rand : int -> string) : Z.t * Z.t =
  let q_bits = Z.numbits q in
  if p_bits < q_bits + 2 then invalid_arg "Primegen.schnorr_modulus: p_bits too small";
  let k_bits = p_bits - q_bits - 1 in
  let p_min = Z.shift_left Z.one (p_bits - 1) in
  let stride = Z.shift_left q 1 in
  let cand_of k = Z.succ (Z.mul k stride) in
  let forms = [ { Sieve.cap = cap_below p_min; add = 1; mul = Z.to_nat stride } ] in
  (* Largest k with 2kq + 1 < 2^p_bits. *)
  let last = Z.div (Z.sub (Z.shift_left Z.one p_bits) Z.two) stride in
  let marks = marks_for (prime_gap p_bits) in
  let test k =
    let cand = cand_of k in
    if Primality.is_prime ~trial:false ~metrics ~rand cand then Some (k, cand)
    else None
  in
  let rec restart () =
    let k = Z.random_bits ~bits:k_bits rand in
    let k = Z.add k (Z.shift_left Z.one (k_bits - 1)) in
    if Z.lt (cand_of k) p_min then restart ()
    else
      match walk ~metrics ~marks ~forms ~step:1 ~last k test with
      | Some hit -> hit
      | None -> restart ()
  in
  restart ()
