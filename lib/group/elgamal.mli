(** ElGamal ciphertexts over a {!Schnorr} group.

    The paper's oblivious transfer sends exponential-ElGamal
    encryptions [(g^r, g^{-i} y^r)] of the user's row and column;
    {!Lbq_ot.Ot} builds and consumes them, {!Lbq_core.Wire} encodes
    them. *)

open Lbq_bignum

type ciphertext = { a : Z.t; b : Z.t }
