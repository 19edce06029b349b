(* ElGamal ciphertexts (ElGamal 1985) over a Schnorr group: pairs (a, b)
   of subgroup elements.  The paper's OT query is the exponential
   flavour E_x(m) = (g^r, g^m * y^r); Ot computes both components itself,
   so only the pair type lives here. *)

open Lbq_bignum

type ciphertext = { a : Z.t; b : Z.t }
