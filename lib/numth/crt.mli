(** Chinese Remainder Theorem over pairwise-coprime moduli. *)

open Lbq_bignum

(** Retained product tree: build once, re-solve a single congruence in
    O(log k) combines.  The moduli are fixed at {!Tree.build}; every
    node caches its half-product and the Bezout inverse it combines
    with, so {!Tree.update_leaf} recomputes only the root-to-leaf path
    and never pays an inversion.  Combination order and arithmetic are
    identical to {!solve}, so a tree's root equals the one-shot answer
    byte for byte after any update sequence. *)
module Tree : sig
  type t

  (** Build the balanced product tree over [[(r1, m1); ...]].  Raises
      [Invalid_argument] (same messages as {!solve}) when moduli are
      not pairwise coprime or some modulus is [<= 1]. *)
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
      (reduced mod that leaf's modulus) and recombines the root-to-leaf
      path — O(log k) multiplications, no inversions.  Raises
      [Invalid_argument] when [i] is out of range. *)
  val update_leaf : t -> int -> Z.t -> unit
end

(** [solve [(r1, m1); ...]] is the smallest non-negative [x] with
    [x = r_i (mod m_i)] for every pair, by product-tree (divide and
    conquer) combination — balanced half-size multiplications that keep
    Karatsuba effective as the congruence count grows.  Thin wrapper
    over {!Tree.build} + {!Tree.solve}.  Raises [Invalid_argument] when
    moduli are not pairwise coprime or some modulus is [<= 1]. *)
val solve : (Z.t * Z.t) list -> Z.t

(** Does [x] satisfy every congruence? *)
val check : Z.t -> (Z.t * Z.t) list -> bool
