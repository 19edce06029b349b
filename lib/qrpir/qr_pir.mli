(** Kushilevitz–Ostrovsky PIR from quadratic residuosity (FOCS'97) — the
    stage-2 building block of the Ghinita et al. baseline (Table II's
    comparison row).

    The database is an a×b matrix of fixed-length blocks; one block fetch
    costs [b] elements up, [a * 8*block_len] elements down, and
    [a*b] multiplications per bit-plane on the server. *)

open Lbq_bignum
module Counters = Lbq_metrics.Counters

type public_key
type private_key

val public_of_private : private_key -> public_key
val modulus : public_key -> Z.t

(** Blum modulus [N = p*q], [p, q = 3 (mod 4)]. *)
val keygen : bits:int -> (int -> string) -> private_key

(** Residuosity test (requires the factorisation). *)
val is_qr : private_key -> Z.t -> bool

val random_qr : public_key -> (int -> string) -> Z.t

(** Jacobi +1 non-residue. *)
val random_pseudo_square : private_key -> (int -> string) -> Z.t

module Client : sig
  type state

  (** One group element per column; only the target column is a
      pseudo-square. *)
  val query :
    ?metrics:Counters.t -> sk:private_key -> cols:int -> target_col:int ->
    (int -> string) -> state * Z.t array

  val target_col : state -> int
  val metrics : state -> Counters.t

  (** Bit of one plane answer at the target row: 1 iff non-residue. *)
  val decode_bit : state -> Z.t array -> target_row:int -> bool

  (** Reassemble a block from all its bit-plane answers (MSB-first). *)
  val decode_block : state -> Z.t array array -> target_row:int -> string
end

module Server : sig
  type t

  (** The server holds no key material: the client owns the modulus and
      its factorisation, and the modulus arrives with each query. *)
  val create : ?metrics:Counters.t -> string array array -> t

  val rows : t -> int
  val cols : t -> int
  val block_len : t -> int

  (** The current block at [(row, col)].  Raises [Invalid_argument] out
      of range. *)
  val block : t -> row:int -> col:int -> string

  (** Streaming update: replace the block at [(row, col)].  The server
      holds the raw blocks, so this is one store; later responses are
      byte-identical to a server rebuilt from the updated matrix.
      Raises [Invalid_argument] on a bad target or block length. *)
  val set_block : t -> row:int -> col:int -> string -> unit

  (** All bit-planes (the full matrix answer the baseline ships),
      modulo the query's [n]: {!respond_batch} on one query.  Raises
      [Invalid_argument] on an even or [<= 1] modulus or a query whose
      width is not [cols]. *)
  val respond : t -> n:Z.t -> Z.t array -> Z.t array array

  (** Answer k queries [(n, ys)] with one traversal of the database bits
      (each bit read and branched on once, applied to all k per-query
      accumulators), each query on its own
      {!Lbq_bignum.Montgomery} context: one tick per window product,
      the entry conversion of the query elements outside the count.
      Per-query multiplication order is preserved, so answers and
      measured mults are identical to k sequential {!respond} calls.
      Every query is validated before any work, with the errors of
      {!respond}. *)
  val respond_batch : t -> (Z.t * Z.t array) array -> Z.t array array array
end

(** One full block fetch: query, respond, decode. *)
val fetch :
  ?metrics:Counters.t -> server:Server.t -> sk:private_key -> row:int ->
  col:int -> (int -> string) -> string
