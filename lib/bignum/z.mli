(** Signed arbitrary-precision integers.

    Pure-OCaml replacement for the subset of Zarith this project needs
    (Zarith is not available in the build environment).  Values are
    immutable; all operations allocate fresh results. *)

type t

(** {1 Constants and conversions} *)

val zero : t
val one : t
val two : t

val of_int : int -> t

(** [to_int_opt z] is [Some n] when [z] fits in a native [int]. *)
val to_int_opt : t -> int option

(** [to_int z] raises [Failure] when [z] does not fit. *)
val to_int : t -> int

(** Decimal string conversions.  [of_string] accepts an optional sign. *)
val of_string : string -> t
val to_string : t -> string

(** Hexadecimal (lowercase, no ["0x"] prefix, non-negative only). *)
val of_hex : string -> t
val to_hex : t -> string

(** Big-endian magnitude bytes (non-negative only for [to_bytes_be]). *)
val of_bytes_be : string -> t
val to_bytes_be : t -> string

(** [to_bytes_be_padded z ~len] left-pads with zero bytes to exactly
    [len] bytes; raises [Invalid_argument] when [z] needs more. *)
val to_bytes_be_padded : t -> len:int -> string

(** Bridges to the internal limb representation; [to_nat] requires a
    non-negative value.  Used by {!Montgomery}. *)
val of_nat : Nat.t -> t
val to_nat : t -> Nat.t

val pp : Format.formatter -> t -> unit

(** {1 Predicates and comparisons} *)

(** [sign z] is -1, 0 or 1. *)
val sign : t -> int

val is_zero : t -> bool
val is_even : t -> bool
val is_odd : t -> bool
val compare : t -> t -> int
val equal : t -> t -> bool
val lt : t -> t -> bool
val leq : t -> t -> bool
val gt : t -> t -> bool
val geq : t -> t -> bool
val max : t -> t -> t

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val succ : t -> t
val pred : t -> t
val mul : t -> t -> t
val mul_int : t -> int -> t

(** Truncated division (rounds toward zero, like OCaml's [/] / [mod]):
    [div_rem a b = (q, r)] with [a = q*b + r] and [sign r = sign a]. *)
val div_rem : t -> t -> t * t

val div : t -> t -> t
val rem : t -> t -> t

(** Euclidean remainder: [erem a b] lies in [\[0, |b|)]. *)
val erem : t -> t -> t

(** Euclidean quotient consistent with {!erem}. *)
val ediv : t -> t -> t

(** [pow b e] for small non-negative [e]. *)
val pow : t -> int -> t

(** Integer square root (floor); requires a non-negative argument. *)
val sqrt : t -> t

val gcd : t -> t -> t

(** [gcdext a b] is [(g, u, v)] with [u*a + v*b = g] and [g >= 0]. *)
val gcdext : t -> t -> t * t * t

(** [invert a m] is the inverse of [a] modulo [m];
    raises [Invalid_argument] when [gcd a m <> 1]. *)
val invert : t -> t -> t

(** Plain square-and-multiply modular exponentiation on {!mul} and
    {!erem}.  Slower than {!Montgomery.powm}; kept as the oracle
    independent of the engine, for tests and the bench crosschecks. *)
val mod_pow_naive : t -> t -> t -> t

(** {1 Bit operations} *)

val shift_left : t -> int -> t

(** Floor semantics for negative values. *)
val shift_right : t -> int -> t

val numbits : t -> int

(** [testbit z i] requires [z >= 0]. *)
val testbit : t -> int -> bool

(** {1 Randomness}

    All generators draw bytes from a caller-supplied source
    [rand : int -> string] (given a length, returns that many bytes), so
    determinism is decided by the caller. *)

(** Uniform in [\[0, 2{^bits})]. *)
val random_bits : bits:int -> (int -> string) -> t

(** Uniform in [\[0, bound)] by rejection sampling. *)
val random_below : bound:t -> (int -> string) -> t

(** Uniform in [\[1, bound)]. *)
val random_unit : bound:t -> (int -> string) -> t
