(** Sliding-window exponent recoding (HAC 14.85) for the {!Montgomery}
    exponentiation ladders.

    [recode] turns an exponent into a compact window schedule: the
    leading window, then one entry per later window packing the
    squarings before it and its odd multiplier, then a count of
    trailing squarings.  Recoding is separated from execution so a
    fixed exponent — the Gentry–Ramzan database integer [e], identical
    across every stage-2 query — is recoded once and replayed per
    query. *)

type t = {
  width : int;  (** window width in bits, 1..7 *)
  first : int;  (** odd leading-window value; 0 iff the exponent is 0 *)
  max_odd : int;  (** largest odd multiplier (sizes the powers table) *)
  wins : int array;
      (** one entry [(gap lsl 8) lor v] per later window, top down: [gap]
          squarings, then a multiplication by [base^v] ([v] odd, below
          [2^7]) *)
  tail : int;  (** squarings after the last window *)
  ebits : int;  (** significant bits of the exponent *)
}

(** Cost-optimal window width for an exponent of [nb] bits (1..7). *)
val width_for : int -> int

(** Recode an exponent given as {!Nat.t} limbs in one scan, each window
    read from at most two limbs.  [width] forces a window width
    (testing/ablation); default is {!width_for} of the exponent's bit
    length. *)
val recode : ?width:int -> Nat.t -> t

(** [refresh old e] recodes a new exponent with [old]'s window width —
    the schedule rebuild after an incremental database update, keeping
    the replay-cost profile stable across epochs. *)
val refresh : t -> Nat.t -> t

(** [iter s ~square ~multiply] walks the schedule below its leading
    window in ladder order: [square n] for each later window's run of
    [n] squarings, then [multiply v] with its odd multiplier, closing
    with [square s.tail].  Engines replay a schedule through this. *)
val iter : t -> square:(int -> unit) -> multiply:(int -> unit) -> unit

(** Exact modular multiplications an engine performs executing the
    schedule, including building the odd-powers table (the updated
    Table II closed form asserts against this). *)
val cost : t -> int

(** Multiplications to replay a schedule when the odd-powers table
    already exists (fixed base): one squaring per bit below the leading
    window plus one multiplication per entry of [wins]. *)
val replay_cost : t -> int

(** Multiplications to build an odd-powers table base^1, base^3, ...,
    base^[max_odd]: 0 when [max_odd = 1], else [1 + (max_odd - 1) / 2]. *)
val table_cost : max_odd:int -> int

(** {2 Positioned windows (Straus/Shamir interleaving)} *)

(** Decompose an exponent into disjoint sliding windows [(pos, v)] with
    [v] odd and [e = sum v * 2^pos], ordered by descending [pos].  An
    interleaved multi-exponentiation engine multiplies by [base^v] when
    its shared squaring ladder reaches bit [pos].  The windows are
    those of {!recode}'s schedule, positioned. *)
val windows : ?width:int -> Nat.t -> (int * int) array

(** Largest odd multiplier in a window decomposition. *)
val windows_max_odd : (int * int) array -> int

(** Exact ladder multiplications of a two-stream interleaved
    exponentiation (tables excluded): shared squarings from the higher
    leading-window position down to bit 0, plus one multiplication per
    window beyond the first. *)
val straus_cost : (int * int) array -> (int * int) array -> int

(** {2 Lim-Lee fixed-base combs} *)

(** Comb geometry: [teeth] rows of [cols] columns covering exponents of
    up to [bits = teeth * cols] bits. *)
type comb = private { teeth : int; cols : int; bits : int }

(** [make_comb ~bits ~teeth] sizes a comb for exponents of at most
    [bits] bits.  Raises [Invalid_argument] unless [bits >= 1] and
    [1 <= teeth <= 16]. *)
val make_comb : bits:int -> teeth:int -> comb

(** Default tooth count for a [bits]-bit exponent range (2^teeth table
    entries vs ~bits/teeth squarings per exponentiation). *)
val teeth_for : int -> int

(** Column digits of an exponent under a comb, digit [j] packing bits
    [j, j + cols, j + 2 cols, ...].  Raises [Invalid_argument] when the
    exponent exceeds the comb's [bits]. *)
val comb_digits : comb -> Nat.t -> int array

(** Exact multiplications executing a comb exponentiation against a
    prebuilt table: highest nonzero column index squarings plus one
    multiplication per further nonzero digit; 0 for [e = 0]. *)
val comb_cost : comb -> Nat.t -> int

(** One-time multiplications to build a comb table for a base:
    [(teeth - 1) * cols] squarings plus [2^teeth - 1 - teeth]
    products. *)
val comb_table_cost : comb -> int
