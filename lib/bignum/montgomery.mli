(** Montgomery modular arithmetic (REDC) for odd moduli — the one
    modular-arithmetic engine of the codebase, since every modulus it
    works with is odd: the stage-2 server ({!powm_sched}; honest
    moduli N = Q0·Q1 are odd, even ones are refused before any work),
    the stage-2 client decode (Pohlig–Hellman on {!window}s), the
    stage-1 Schnorr group (the table kernels below), Miller–Rabin, and
    the baseline's QR-PIR (Blum modulus) and Paillier ([n{^2}]).
    {!Z.mod_pow_naive} is the independent oracle its crosschecks use;
    the pre-rewrite 26-bit ladder lives in the test-only oracle library
    and shares no state with a context.

    The hot core is a fused word-level CIOS sweep at an internal radix
    of 2{^29} (multiply and REDC reduction in one sweep, four operand
    digits per pass and eight limb products per column, closing with a
    two-digit pass when the window width is 2 mod 4), with a dedicated
    symmetric squaring path used by the {!Wexp} window ladders and
    preallocated {!Scratch} buffers so steady-state exponentiation
    allocates nothing per operation.
    Residues cross the API as {!Z.t} or as 29-bit {!window}s, the one
    Montgomery form. *)

type t

(** Precompute for an odd positive modulus.  [R mod n] is derived by
    repeated modular doubling and [R{^2} mod n] from it by a squaring
    chain over the bits of [log2 R] (no full division), keeping
    per-query context setup cheap. *)
val create : Z.t -> t

val modulus : t -> Z.t

(** Attach ([Some r]) or detach ([None]) a counter incremented once per
    Montgomery multiplication/squaring through this context. *)
val set_counter : t -> int ref option -> unit

(** [counting t r f] runs [f ()] with [r] attached, restoring the
    previous counter afterwards. *)
val counting : t -> int ref -> (unit -> 'a) -> 'a

(** [powm t b e] is [b{^e} mod m] for [e >= 0]: sliding-window REDC with
    an odd-powers table, width from {!Wexp.width_for}. *)
val powm : t -> Z.t -> Z.t -> Z.t

(** [powm_sched t b s] executes a schedule precomputed by {!Wexp.recode}
    — the stage-2 per-query fast path with the database exponent's
    schedule cached server-side. *)
val powm_sched : t -> Z.t -> Wexp.t -> Z.t

(** One-shot modular product [a * b mod n] on two sweeps (the second
    against [R{^2}] cancels the first's [R{^-1}], so no exit REDC).
    Ticks twice. *)
val mulmod : t -> Z.t -> Z.t -> Z.t

(** {1 Montgomery-form windows}

    A residue [x] held as [x·R mod n] in one engine window of
    {!k_limbs} digits.  Windows are canonical, so two windows of one
    context are equal (structurally, and under [Hashtbl.hash]) exactly
    when their residues are.  Every function here returns a fresh window
    and never mutates its arguments, so tables of windows can be shared
    across domains. *)

type window = private int array

(** Entry conversion of any integer (reduced first).  Ticks once. *)
val to_window : t -> Z.t -> window

(** Exit conversion (one REDC).  Does not tick. *)
val of_window : t -> window -> Z.t

(** The Montgomery form of 1 (precomputed at {!create}; no tick). *)
val one_window : t -> window

(** Product of two windows.  Ticks once. *)
val mul_window : t -> window -> window -> window

(** Square of a window through the dedicated symmetric squaring sweep;
    equal to [mul_window t a a].  Ticks once. *)
val sqr_window : t -> window -> window

(** [pow_window t b s] is [b{^e}] for the exponent [e] recoded in [s]:
    exactly {!Wexp.cost}[ s] ticks (odd-powers table plus replay), no
    conversions. *)
val pow_window : t -> window -> Wexp.t -> window

(** {1 Precomputed-table kernels (stage-1 engine)}

    Fixed-base material in Montgomery form: building a table converts
    its base in once (one tick on top of the {!Wexp} table cost), and
    each exponentiation against it converts out once (untickled), so
    every kernel ticks exactly its {!Wexp} closed form. *)

type table

(** Odd-powers table [base{^1}, base{^3}, ..., base{^max_odd}]
    ([max_odd] odd): {!Wexp.table_cost}[ ~max_odd + 1] ticks.  Replay
    with {!powm_tbl} / {!powm2_tbl}. *)
val odd_powers : t -> Z.t -> max_odd:int -> table

(** Replay a {!Wexp.recode} schedule against a prebuilt odd-powers
    table: {!Wexp.replay_cost} ticks, no table cost.  Raises
    [Invalid_argument] when the table is too small for the schedule. *)
val powm_tbl : t -> table -> Wexp.t -> Z.t

(** [powm2_tbl t tbl1 ws1 tbl2 ws2] is [b1{^e1} * b2{^e2}] for the
    exponents encoded by the two {!Wexp.windows} streams over their
    bases' odd-powers tables, interleaved on one shared Straus/Shamir
    squaring ladder: exactly {!Wexp.straus_cost}[ ws1 ws2] ticks. *)
val powm2_tbl :
  t -> table -> (int * int) array -> table -> (int * int) array -> Z.t

(** Lim–Lee fixed-base comb table (see {!Wexp.make_comb}): built once
    per (context, base) in {!Wexp.comb_table_cost}[ + 1] ticks, it turns
    every exponentiation of that base into ~[cols] squarings plus table
    lookups. *)
type fixed_base

val fixed_base : t -> Z.t -> Wexp.comb -> fixed_base
val fixed_base_comb : fixed_base -> Wexp.comb

(** Comb exponentiation against a prebuilt table: {!Wexp.comb_cost}
    ticks exactly.  Raises [Invalid_argument] when the exponent exceeds
    the comb's bit capacity. *)
val powm_fixed_base : t -> fixed_base -> Nat.t -> Z.t

(** {1 Fixed-width internals} (exposed for tests and the kernel bench)

    The fused core trades in fixed-width windows of 29-bit digits (the
    engine's internal radix — wider than {!Nat}'s 26, yet a column can
    take eight limb products per 63-bit int; see montgomery.ml).  These
    do NOT tick the counter — they are the raw kernels under
    {!mul_window}/{!sqr_window}. *)

(** Engine window width: the number of 29-bit digits per residue
    (always even and at least 4; the top digits may be zero padding). *)
val k_limbs : t -> int

(** Repack a canonical residue (< n) into a fresh engine window. *)
val widen : t -> Nat.t -> int array

(** [mont_mul_into t dst a b]: dst <- a*b*R{^-1} mod n by one fused
    CIOS sweep (four digits of [b] per pass, a two-digit closing pass
    when {!k_limbs} is 2 mod 4).  [dst] may alias [a] or [b]. *)
val mont_mul_into : t -> int array -> int array -> int array -> unit

(** [mont_sqr_into t dst a]: the dedicated symmetric squaring sweep
    (each cross product computed once and doubled, ~25% fewer limb
    products than a multiply; four digits per pass like
    {!mont_mul_into}).  [dst] may alias [a]. *)
val mont_sqr_into : t -> int array -> int array -> unit
