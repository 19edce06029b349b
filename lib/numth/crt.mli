(** Chinese Remainder Theorem over pairwise-coprime moduli. *)

open Lbq_bignum

(** A solved system that stays solvable under residue changes: build
    once, then re-solve after a single congruence changes with one
    product.  {!Tree.build} is a remainder-tree CRT that never inverts
    wider than a leaf modulus; the tree keeps only per-leaf state (the
    modulus [pi_i], the current residue and [(M / pi_i)^{-1} mod pi_i])
    plus the product [M] and the solution.  The solution is the unique
    one in [[0, M)], so a tree's answer equals a freshly built tree's
    byte for byte after any update sequence. *)
module Tree : sig
  type t

  (** Solve [[(r1, m1); ...]] for the smallest non-negative [x] with
      [x = r_i (mod m_i)], and keep what {!update_leaf} needs.  Raises
      [Invalid_argument "Crt.solve: modulus <= 1"] when some modulus is
      [<= 1] and [Invalid_argument "Crt.solve: moduli not coprime"] when
      the moduli are not pairwise coprime.  Every modulus is checked
      [> 1] before any coprimality test, so the first wins when both
      faults are present. *)
  val build : (Z.t * Z.t) list -> t

  (** Number of congruences (leaves). *)
  val size : t -> int

  (** The smallest non-negative [x] satisfying every current
      congruence; [Z.zero] for an empty tree. *)
  val solve : t -> Z.t

  (** Product of all moduli; [Z.one] for an empty tree. *)
  val modulus : t -> Z.t

  (** The modulus of leaf [i].  Raises [Invalid_argument] when [i] is
      out of range. *)
  val leaf_modulus : t -> int -> Z.t

  (** [update_leaf t i r] replaces congruence [i]'s residue with [r]
      (reduced mod that leaf's modulus) and moves the solution by
      [d * (M / pi_i)] for a leaf-width [d]: one product, one exact
      division of [M] by [pi_i], at most one subtraction of [M] and no
      inversion.  Raises [Invalid_argument] when [i] is out of range. *)
  val update_leaf : t -> int -> Z.t -> unit
end

(** Does [x] satisfy every congruence? *)
val check : Z.t -> (Z.t * Z.t) list -> bool
