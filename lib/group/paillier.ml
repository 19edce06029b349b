(* Paillier cryptosystem (EUROCRYPT'99), additively homomorphic.  This is
   the primitive the Ghinita et al. baseline uses for its stage-1
   homomorphic cell-membership test, against which the paper compares. *)

open Lbq_bignum
open Lbq_numth

type public_key = {
  n : Z.t;                 (* modulus n = p*q *)
  n2 : Z.t;                (* n^2 *)
  ctx : Montgomery.t;      (* arithmetic mod n^2 (odd: n = p*q) *)
}

type private_key = {
  pub : public_key;
  lambda : Z.t;            (* lcm(p-1, q-1) *)
  mu : Z.t;                (* (L(g^lambda mod n^2))^-1 mod n *)
}

let public_of_private sk = sk.pub
let modulus pk = pk.n
let modulus_squared pk = pk.n2

let make_public n =
  let n2 = Z.mul n n in
  { n; n2; ctx = Montgomery.create n2 }

(* g = n + 1 (standard simplification): L(g^lambda) = lambda mod n, so
   mu = lambda^-1 mod n. *)
let keygen ~bits rand =
  if bits < 16 then invalid_arg "Paillier.keygen: bits too small";
  let half = bits / 2 in
  let rec go () =
    let p = Primegen.random_prime ~bits:half rand in
    let q = Primegen.random_prime ~bits:half rand in
    if Z.equal p q then go () else p, q
  in
  let p, q = go () in
  let n = Z.mul p q in
  let pub = make_public n in
  let p1 = Z.pred p and q1 = Z.pred q in
  let lambda = Z.div (Z.mul p1 q1) (Z.gcd p1 q1) in
  let mu = Z.invert lambda n in
  { pub; lambda; mu }

(* E(m) = (1 + n)^m * r^n mod n^2 = (1 + m*n) * r^n mod n^2. *)
let encrypt pk ~rand (m : Z.t) : Z.t =
  let m = Z.erem m pk.n in
  let r = Z.random_unit ~bound:pk.n rand in
  let gm = Z.succ (Z.mul m pk.n) in
  Montgomery.mulmod pk.ctx gm (Montgomery.powm pk.ctx r pk.n)

let l_function pk x = Z.div (Z.pred x) pk.n

let decrypt sk (c : Z.t) : Z.t =
  let pk = sk.pub in
  let u = Montgomery.powm pk.ctx c sk.lambda in
  Z.erem (Z.mul (l_function pk u) sk.mu) pk.n

(* Homomorphic addition of plaintexts: E(a) * E(b) = E(a + b). *)
let add pk c1 c2 = Montgomery.mulmod pk.ctx c1 c2

(* Homomorphic scaling by a plaintext constant: E(a)^k = E(k * a). *)
let scale pk c k = Montgomery.powm pk.ctx c (Z.erem k pk.n)

(* E(a) * (1+n)^b = E(a + b) without encrypting b (cheaper). *)
let add_plain pk c b =
  let b = Z.erem b pk.n in
  Montgomery.mulmod pk.ctx c (Z.succ (Z.mul b pk.n))
