(** Discrete-log references for {!Lbq_numth.Dlog.Prime_power_solver},
    the PIR decode.

    Each returns [Some x] with [base^x = target], or [None] when
    [target] is not in the searched range or subgroup.  {!brute} and
    {!bsgs} take the modulus itself, any modulus, and run on plain [Z]
    arithmetic, so they share no code with the Montgomery engine the
    solver runs on. *)

open Lbq_bignum

(** Exhaustive search over [x in \[0, bound)] modulo the first argument
    (the paper's "brute force", Appendix B). *)
val brute : Z.t -> base:Z.t -> target:Z.t -> bound:Z.t -> Z.t option

(** Baby-step/giant-step: O(sqrt order) time and space; [order] is the
    order of [base]; the first argument is the modulus. *)
val bsgs : Z.t -> base:Z.t -> target:Z.t -> order:Z.t -> Z.t option

(** Pohlig–Hellman in the subgroup of prime-power order [p^c] generated
    by [base]: a one-shot {!Lbq_numth.Dlog.Prime_power_solver}. *)
val pohlig_hellman_prime_power :
  Montgomery.t -> base:Z.t -> target:Z.t -> p:Z.t -> c:int -> Z.t option

(** General Pohlig–Hellman given the factorisation of the order of
    [base] as [(prime, exponent)] pairs (from {!Factor.factor}, say). *)
val pohlig_hellman :
  Montgomery.t -> base:Z.t -> target:Z.t -> factors:(Z.t * int) list ->
  Z.t option
