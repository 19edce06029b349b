(** One-shot Chinese remaindering over {!Lbq_numth.Crt.Tree}: build
    the tree, read its solution, drop it.  The stage-2 encode keeps its
    tree for updates; tests and {!Dlog.pohlig_hellman} solve a system
    once. *)

open Lbq_bignum

(** [solve [(r1, m1); ...]] is the smallest non-negative [x] with
    [x = r_i (mod m_i)] for every pair.  Raises [Invalid_argument] like
    {!Lbq_numth.Crt.Tree.build}: ["Crt.solve: modulus <= 1"] (checked
    first) or ["Crt.solve: moduli not coprime"]. *)
val solve : (Z.t * Z.t) list -> Z.t
