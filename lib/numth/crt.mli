(** Chinese Remainder Theorem over pairwise-coprime moduli. *)

open Lbq_bignum

(** A solved system that stays solvable under residue changes: build
    once, then re-solve after a single congruence changes with one
    product.  {!Tree.build} is a remainder-tree CRT that never inverts
    wider than a leaf modulus; the tree keeps only per-leaf state (the
    modulus [pi_i], the current residue and [(M / pi_i)^{-1} mod pi_i])
    plus the product [M] and the solution.  A leaf's cofactor [M / pi_i]
    is computed on its first {!Tree.update_leaf} and kept, packed off
    the OCaml heap in one region of [n * |M| * 32/26] bits per tree
    (0.4 MB for the 64 slots of the mid-64 preset, 8 MB at 15x15 cells
    of 1024 bits), allocated on the tree's first update; a leaf's part
    of it is written, and so resident, only from the leaf's first
    update on.  {!Tree.build} computes no cofactor.  The solution
    is the unique one in [[0, M)], so a tree's answer equals a freshly
    built tree's byte for byte after any update sequence. *)
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

  (** The smallest non-negative [x] satisfying every current
      congruence; [Z.zero] for an empty tree. *)
  val solve : t -> Z.t

  (** [update_leaf t i r] replaces congruence [i]'s residue with [r]
      (reduced mod that leaf's modulus) and moves the solution by
      [d * (M / pi_i)] for a leaf-width [d], with at most one
      subtraction of [M] and no inversion.  The leaf's first update
      also divides [M] by [pi_i] once and keeps the quotient; every
      later one does no division: one fresh [|M|]-limb array takes a
      copy of the solution, the [d]-by-cofactor product and the
      subtraction in place.  A residue equal to the current one leaves
      the solution as it is.  A solution {!solve} returned earlier is
      never changed.  Raises [Invalid_argument] when [i] is out of
      range. *)
  val update_leaf : t -> int -> Z.t -> unit
end

(** Does [x] satisfy every congruence? *)
val check : Z.t -> (Z.t * Z.t) list -> bool
