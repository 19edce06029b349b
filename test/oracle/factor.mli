(** Integer factorisation: trial division + Pollard rho (Brent).  Sized
    for smooth/semi-smooth numbers (group orders), not RSA moduli. *)

open Lbq_bignum

(** One bounded rho walk; [Some d] is a non-trivial factor of odd
    composite [n] (runs on a {!Lbq_bignum.Montgomery} context, so an
    even [n] raises [Invalid_argument]). *)
val rho_once : ?max_iters:int -> Z.t -> seed:int -> Z.t option

(** Full factorisation as sorted [(prime, exponent)] pairs.  Raises
    [Failure] when a composite cofactor resists [attempts] rho walks. *)
val factor : ?attempts:int -> ?rand:(int -> string) -> Z.t -> (Z.t * int) list

(** Inverse of {!factor}. *)
val recompose : (Z.t * int) list -> Z.t
