(** The exponents that {!Lbq_bignum.Wexp}'s representations encode,
    rebuilt in plain {!Lbq_bignum.Z} arithmetic: the oracles the recoding
    tests check [recode], [windows] and [comb_digits] against. *)

open Lbq_bignum

(** The exponent a window schedule computes: the leading window, then
    each {!Lbq_bignum.Wexp.iter} step as a shift (squarings) or an
    addition (a multiplier). *)
val to_exponent : Wexp.t -> Z.t

(** [sum v * 2^pos] over a positioned window decomposition. *)
val windows_to_exponent : (int * int) array -> Z.t

(** The exponent a comb digit vector encodes: bit [i] of digit [j] is
    exponent bit [i * cols + j]. *)
val comb_to_exponent : Wexp.comb -> int array -> Z.t
