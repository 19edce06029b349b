(** The sequential left-fold CRT: the oracle for the remainder-tree
    {!Lbq_numth.Crt.Tree}. *)

open Lbq_bignum

(** [solve [(r1, m1); ...]] combines the congruences left to right, the
    accumulated modulus growing by one factor per step (quadratic limb
    work in the congruence count).  Raises [Invalid_argument], with the
    same messages as {!Lbq_numth.Crt.Tree.build}, when moduli are not
    pairwise coprime or some modulus is [<= 1]. *)
val solve : (Z.t * Z.t) list -> Z.t
