(** Paillier cryptosystem (additively homomorphic) — the primitive behind
    the Ghinita et al. baseline's homomorphic cell-membership test. *)

open Lbq_bignum

type public_key

type private_key

val public_of_private : private_key -> public_key

(** The plaintext modulus [n]. *)
val modulus : public_key -> Z.t

(** The ciphertext modulus [n{^2}] (ciphertext size accounting). *)
val modulus_squared : public_key -> Z.t

val keygen : bits:int -> (int -> string) -> private_key

(** Ciphertexts are integers mod [n^2]. *)
val encrypt : public_key -> rand:(int -> string) -> Z.t -> Z.t

val decrypt : private_key -> Z.t -> Z.t

(** [add pk c1 c2] encrypts the sum of the two plaintexts. *)
val add : public_key -> Z.t -> Z.t -> Z.t

(** [scale pk c k] encrypts [k] times the plaintext of [c]. *)
val scale : public_key -> Z.t -> Z.t -> Z.t

(** [add_plain pk c b] encrypts [plaintext(c) + b]. *)
val add_plain : public_key -> Z.t -> Z.t -> Z.t
