(* Discrete-log references: brute force, baby-step/giant-step and
   general Pohlig–Hellman, the oracles test_numth checks the PIR
   decode's Pohlig–Hellman solver against. *)

open Lbq_bignum

(* Exhaustive search for x in [0, bound) with base^x = target modulo
   [m]: the paper's "brute force" (Appendix B).  Plain [Z] arithmetic,
   so the oracle shares no code with the Montgomery engine the
   Pohlig–Hellman solver runs on. *)
let brute m ~base ~target ~bound : Z.t option =
  let mulmod a b = Z.erem (Z.mul a b) m in
  let target = Z.erem target m in
  let rec go x acc =
    if Z.geq x bound then None
    else if Z.equal acc target then Some x
    else go (Z.succ x) (mulmod acc base)
  in
  go Z.zero (Z.erem Z.one m)

(* Baby-step/giant-step in the cyclic group generated by [base] of order
   [order] modulo [modulus]: O(sqrt order) time and space, plain [Z]
   arithmetic like {!brute}. *)
let bsgs modulus ~base ~target ~order : Z.t option =
  if Z.sign order <= 0 then invalid_arg "Dlog.bsgs: order <= 0";
  let mulmod a b = Z.erem (Z.mul a b) modulus in
  let target = Z.erem target modulus in
  let m = Z.to_int (Z.succ (Z.sqrt (Z.pred order))) in
  let table = Hashtbl.create (2 * m) in
  let acc = ref (Z.erem Z.one modulus) in
  for j = 0 to m - 1 do
    if not (Hashtbl.mem table (Z.to_bytes_be !acc)) then
      Hashtbl.add table (Z.to_bytes_be !acc) j;
    acc := mulmod !acc base
  done;
  (* giant step factor: base^(-m) *)
  let base_m = Z.mod_pow_naive base (Z.of_int m) modulus in
  let factor = Z.invert base_m modulus in
  let rec go i y =
    if i > m then None
    else
      match Hashtbl.find_opt table (Z.to_bytes_be y) with
      | Some j ->
        let x = Z.add (Z.mul_int (Z.of_int i) m) (Z.of_int j) in
        if Z.lt x order then Some x else None
      | None -> go (i + 1) (mulmod y factor)
  in
  go 0 target

let pohlig_hellman_prime_power ctx ~base ~target ~p ~c : Z.t option =
  Lbq_numth.Dlog.Prime_power_solver.(solve (make ctx ~base ~p ~c) target)

(* General Pohlig–Hellman: [factors] is the factorisation [(p_i, c_i); ...]
   of the order of [base] (pairwise distinct primes).  Solves each
   prime-power instance and combines with the CRT. *)
let pohlig_hellman ctx ~base ~target ~factors : Z.t option =
  let order =
    List.fold_left (fun acc (p, c) -> Z.mul acc (Z.pow p c)) Z.one factors
  in
  let rec go acc = function
    | [] -> Some (Crt.solve (List.rev acc))
    | (p, c) :: rest ->
      let q = Z.pow p c in
      let cofactor = Z.div order q in
      let base_i = Montgomery.powm ctx base cofactor in
      let target_i = Montgomery.powm ctx target cofactor in
      (match pohlig_hellman_prime_power ctx ~base:base_i ~target:target_i ~p ~c with
       | None -> None
       | Some x -> go ((x, q) :: acc) rest)
  in
  go [] factors
