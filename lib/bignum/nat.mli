(** Low-level arbitrary-precision natural numbers.

    Little-endian [int array] limbs in base [2{^26}], canonical (no trailing
    zero limbs).  This is the mutable-buffer engine under {!Z}; application
    code should normally use {!Z}. *)

type t = int array

val limb_bits : int
val base : int
val mask : int

val zero : t
val one : t
val two : t

val is_zero : t -> bool

(** Drop trailing zero limbs. *)
val normalize : t -> t

val of_int : int -> t
val to_int_opt : t -> int option

val compare : t -> t -> int
val equal : t -> t -> bool

(** Significant bits; 0 for zero. *)
val numbits : t -> int

val testbit : t -> int -> bool

val add : t -> t -> t

(** [sub a b] requires [a >= b]; raises [Invalid_argument] otherwise. *)
val sub : t -> t -> t

val add_int : t -> int -> t

(** [addmul_1 r off a m] adds [a * m] (single-limb [m]) into [r] starting
    at limb [off]; [r] must be long enough for the final carry.  The
    building block of multiplication and Montgomery's REDC sweep. *)
val addmul_1 : int array -> int -> t -> int -> unit

(** Size ladder: schoolbook below [karatsuba_threshold] limbs, Karatsuba
    2-way up to [toom3_threshold], Toom-Cook 3-way above.  Exposed so
    tests can pin the tuning and exercise the cutoff boundaries. *)
val karatsuba_threshold : int

val toom3_threshold : int

(** Toom-Cook 3-way / Karatsuba / schoolbook by operand size. *)
val mul : t -> t -> t

val mul_schoolbook : t -> t -> t

(** [sqr a = mul a a], but each symmetric cross product is computed once
    and doubled (about half the limb products); Karatsuba squaring above
    the multiplication threshold.  The test-only reference Montgomery
    ladder squares through it. *)
val sqr : t -> t

val sqr_schoolbook : t -> t

val mul_int : t -> int -> t

val shift_left : t -> int -> t
val shift_right : t -> int -> t

(** [divmod a d] is [(q, r)] with [a = q*d + r], [0 <= r < d].
    Raises [Division_by_zero] when [d] is zero. *)
val divmod : t -> t -> t * t

(** Division by a single limb [0 < d < base]. *)
val divmod_1 : t -> int -> t * int

val of_bytes_be : string -> t
val to_bytes_be : t -> string

val of_string : string -> t
val to_string : t -> string
