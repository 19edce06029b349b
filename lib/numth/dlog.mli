(** Discrete logarithms in (Z/NZ)*: the PIR decode.

    The solver runs on a {!Lbq_bignum.Montgomery.t} context, so its
    modulus must be odd. *)

open Lbq_bignum

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
