(** Discrete logarithms in (Z/NZ)*.

    Every function returns [Some x] with [base^x = target], or [None]
    when [target] is not in the searched range/subgroup.  The
    Pohlig–Hellman solvers (the PIR decode) run on a
    {!Lbq_bignum.Montgomery.t} context, so their modulus must be odd;
    {!brute} and {!bsgs} take the modulus itself, any modulus, and run
    on plain [Z] arithmetic: independent test oracles for them. *)

open Lbq_bignum

(** Exhaustive search over [x in \[0, bound)] modulo the first argument. *)
val brute : Z.t -> base:Z.t -> target:Z.t -> bound:Z.t -> Z.t option

(** Baby-step/giant-step: O(sqrt order) time and space; [order] is the
    order of [base]; the first argument is the modulus. *)
val bsgs : Z.t -> base:Z.t -> target:Z.t -> order:Z.t -> Z.t option

(** Reusable Pohlig–Hellman solver for a subgroup of prime-power order
    [p{^c}].  [make] precomputes everything that depends only on the
    instance — the order-[p] generator [base{^p{^(c-1)}}] and the recoded
    [p{^k}] exponents of the recursion (and, lazily, the inverse powers
    [base{^-p{^k}}] and the baby-step table of the order-[p] subgroup
    shared by all [c] leaf digit-solves) — so a PIR client decoding many
    responses against one instance pays for them once.  Residues and
    table keys stay in Montgomery form throughout. *)
module Prime_power_solver : sig
  type t

  (** [base] must have order exactly [p{^c}] modulo the context. *)
  val make : Montgomery.t -> base:Z.t -> p:Z.t -> c:int -> t

  (** Force the lazily-built tables (inverse powers, shared baby-step
      table) now, so the first {!solve} pays nothing instance-dependent.
      Offline instance builders ({!Lbq_cache.Keypool}) call this to move
      the whole decode setup off the query path. *)
  val force : t -> unit

  (** [Some x] with [base{^x} = target], [x] in [\[0, p{^c})]; [None]
      when [target] is outside the subgroup. *)
  val solve : t -> Z.t -> Z.t option
end

(** Pohlig–Hellman in the subgroup of prime-power order [p^c] generated by
    [base] (one-shot {!Prime_power_solver}).  This is the PIR decode
    step: cost O(c (lg p^c + sqrt p)) group operations, matching
    Table II. *)
val pohlig_hellman_prime_power :
  Montgomery.t -> base:Z.t -> target:Z.t -> p:Z.t -> c:int -> Z.t option

(** General Pohlig–Hellman given the factorisation of the order of [base]
    as [(prime, exponent)] pairs. *)
val pohlig_hellman :
  Montgomery.t -> base:Z.t -> target:Z.t -> factors:(Z.t * int) list ->
  Z.t option
