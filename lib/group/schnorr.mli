(** Schnorr groups: the prime-order-q subgroup of F{_p}{^*}.

    The paper fixes |p| = 1024 and |q| = 160 with q | (p - 1), publishes
    (G, g, p, q), and works in the subgroup generated by [g].  All
    arithmetic runs on one {!Montgomery} context for the odd prime [p]. *)

open Lbq_bignum

type t

val p : t -> Z.t
val q : t -> Z.t
val g : t -> Z.t

(** [counting t r f] runs [f ()] with [r] counting every modular
    multiplication the group's engine (the {!Montgomery} context for
    [p]) performs, restoring the previous counter afterwards.  The
    context is shared by every user of the group: single-threaded
    callers only. *)
val counting : t -> int ref -> (unit -> 'a) -> 'a

val p_bits : t -> int
val q_bits : t -> int

(** {1 Group operations} *)

(** One-off product, two Montgomery sweeps ({!Montgomery.mulmod}). *)
val mul : t -> Z.t -> Z.t -> Z.t

(** Exact multiplications one {!mul} performs (2). *)
val mul_cost : int

(** [pow t b e] is [b^(e mod q) mod p]. *)
val pow : t -> Z.t -> Z.t -> Z.t

(** [pow_g t e] is [g^(e mod q) mod p] through the group's precomputed
    Lim-Lee comb table — ~q_bits/teeth squarings plus table lookups
    instead of a full square-and-multiply ladder. *)
val pow_g : t -> Z.t -> Z.t

(** Exact modular multiplications {!pow_g} spends on this exponent
    (closed-form cost oracle, asserted against measured counters). *)
val pow_g_cost : t -> Z.t -> int

(** Exact multiplications of [pow2_g_counted t e1 _ e2]
    (base-independent): the [b2] table with its entry conversion, plus
    the shared ladder. *)
val pow2_g_cost : t -> Z.t -> Z.t -> int

(** [pow2_g_counted t e1 b2 e2] is [g^e1 * b2^e2 mod p] on one shared
    Straus/Shamir squaring ladder, replaying the group's cached
    odd-powers table for the [g] stream, paired with its exact
    multiplication count (one call, so hot paths that track both recode
    the exponents once). *)
val pow2_g_counted : t -> Z.t -> Z.t -> Z.t -> Z.t * int

(** {2 Per-query fixed-base combs}

    A full Lim-Lee comb for an arbitrary group element, same geometry as
    the cached generator comb, built once and reused across many
    exponentiations of that base (the OT server raises the same
    ciphertext component to a fresh exponent on every row of an
    axis). *)

type base_comb

val base_comb : t -> Z.t -> base_comb
val pow_comb : t -> base_comb -> Z.t -> Z.t

(** [pow_comb] plus its exact multiplication count. *)
val pow_comb_counted : t -> base_comb -> Z.t -> Z.t * int

(** One-time multiplications of {!base_comb} (entry conversion plus
    comb table). *)
val base_comb_cost : t -> int

val inv : t -> Z.t -> Z.t
val div : t -> Z.t -> Z.t -> Z.t

(** Subgroup membership: [x] in [1, p) and [x^q = 1]. *)
val mem : t -> Z.t -> bool

(** {1 Construction} *)

(** Validates the relations between [p], [q] and [g]. *)
val of_params : p:Z.t -> q:Z.t -> g:Z.t -> t

(** Fresh group: prime [q], prime [p = 2kq + 1], [g] of order [q]. *)
val generate : p_bits:int -> q_bits:int -> (int -> string) -> t

(** {1 Fixed parameter sets}

    Pre-generated with {!generate} and embedded, so tests and benches skip
    generation cost — exactly as the paper fixes parameters per round. *)

(** |p| = 1024, |q| = 160 (the paper's evaluation setting). *)
val paper_group : unit -> t

(** |p| = 512, |q| = 160 (security-parameter ablation midpoint). *)
val mid_group : unit -> t

(** |p| = 256, |q| = 160 (fast, for unit tests only). *)
val test_group : unit -> t
