open Lbq_bignum
module Counters = Lbq_metrics.Counters
module Primality = Lbq_numth.Primality

let random_prime ?(metrics = Counters.null) ~bits rand : Z.t =
  if bits < 2 then invalid_arg "Primegen.random_prime: bits < 2";
  let rec go () =
    let c = Z.random_bits ~bits rand in
    let c = Z.add c (Z.shift_left Z.one (bits - 1)) in
    let c = if Z.is_even c then Z.succ c else c in
    let c =
      if Z.numbits c > bits then Z.pred (Z.shift_left Z.one bits) else c
    in
    Counters.prime_attempts metrics 1;
    if Primality.is_prime ~metrics ~rand c then c else go ()
  in
  go ()

let semi_safe ?(metrics = Counters.null) ~q_bits ~(multiple : Z.t) rand :
    Z.t * Z.t =
  if Z.sign multiple <= 0 then invalid_arg "Primegen.semi_safe: multiple <= 0";
  let rec go () =
    let q = random_prime ~metrics ~bits:q_bits rand in
    let cand = Z.succ (Z.shift_left (Z.mul q multiple) 1) in
    Counters.prime_attempts metrics 1;
    if Primality.is_prime ~metrics ~rand cand then q, cand else go ()
  in
  go ()
