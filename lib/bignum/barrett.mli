(** Barrett modular reduction with a precomputed reciprocal.

    Create one context per modulus and reuse it: reduction then costs two
    multiplications instead of a division.  Works for any modulus, so it
    serves where {!Montgomery} cannot or need not: even moduli (the
    stage-2 hostile-input fallback), the quadratic-residuosity PIR and
    Paillier, isolated single products (the Schnorr group's [mul]), and
    the independent test oracles that check the Montgomery ladders. *)

type t

(** [create m] precomputes the Barrett reciprocal for modulus [m > 0]. *)
val create : Z.t -> t

val modulus : t -> Z.t

(** Attach ([Some r]) or detach ([None]) a counter incremented once per
    modular multiplication through this context (squarings included).
    Backs the measured column of the Table II reproduction. *)
val set_counter : t -> int ref option -> unit

(** [counting t r f] runs [f ()] with [r] attached, restoring the previous
    counter afterwards. *)
val counting : t -> int ref -> (unit -> 'a) -> 'a

(** [reduce t x] is [x mod m] (input may be any integer). *)
val reduce : t -> Z.t -> Z.t

(** [mulmod t a b] is [a * b mod m]. *)
val mulmod : t -> Z.t -> Z.t -> Z.t

(** [sqrmod t a] is [a{^2} mod m] through the dedicated {!Nat.sqr}
    (about half the limb products of [mulmod t a a]). *)
val sqrmod : t -> Z.t -> Z.t

(** [powm t b e] is [b{^e} mod m] for [e >= 0]: sliding-window with an
    odd-powers table, width from {!Wexp.width_for}. *)
val powm : t -> Z.t -> Z.t -> Z.t

(** [powm_sched t b s] executes a schedule precomputed by {!Wexp.recode}
    — the per-query fast path when the exponent is fixed. *)
val powm_sched : t -> Z.t -> Wexp.t -> Z.t

(** The pre-sliding-window engine (fixed 4-bit window, per-bit
    [Z.testbit]).  Ablation baseline for [bench pir] only. *)
val powm_fixed4 : t -> Z.t -> Z.t -> Z.t

(** Limb-level variants for callers already holding residues. *)
val reduce_nat : t -> Nat.t -> Nat.t
val mulmod_nat : t -> Nat.t -> Nat.t -> Nat.t
val sqrmod_nat : t -> Nat.t -> Nat.t
val powm_nat : t -> Nat.t -> Z.t -> Nat.t
val powm_nat_sched : t -> Nat.t -> Wexp.t -> Nat.t
