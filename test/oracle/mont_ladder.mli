(** The pre-rewrite Montgomery ladder: multiply-then-REDC in 26-bit
    {!Lbq_bignum.Nat} arithmetic with R = B{^k} for the modulus's k
    limbs.

    An independent second engine for {!Lbq_bignum.Montgomery}: its
    constants (n′, R mod n, R{^2} mod n) come from the modulus through
    plain {!Lbq_bignum.Z} arithmetic, and it counts its own ticks, so it
    shares no state and no reduction code with the context it checks.
    Residues in this module's Montgomery form differ from the engine's
    29-bit windows; the two agree on every [Z]-level result.  Ticks
    follow the engine's rules exactly: one per Montgomery
    multiplication or squaring, the entry conversion included, the exit
    REDC excluded. *)

open Lbq_bignum

type t

(** Precompute for an odd positive modulus; raises [Invalid_argument]
    otherwise. *)
val create : Z.t -> t

(** Montgomery multiplications and squarings performed since {!create}. *)
val ticks : t -> int

(** [x·R mod n] for any integer [x] (reduced first).  Ticks once. *)
val to_mont : t -> Z.t -> Nat.t

(** [a·b·R{^-1} mod n] by a full product then REDC.  Ticks once. *)
val mont_mul : t -> Nat.t -> Nat.t -> Nat.t

(** [a{^2}·R{^-1} mod n] by {!Lbq_bignum.Nat.sqr} then REDC.  Ticks
    once. *)
val mont_sqr : t -> Nat.t -> Nat.t

(** Execute a {!Lbq_bignum.Wexp.recode} schedule: odd-powers table plus
    replay, allocating per operation; {!Lbq_bignum.Wexp.cost}[ s + 1]
    ticks for a nonzero exponent, none for zero. *)
val powm_sched : t -> Z.t -> Wexp.t -> Z.t
