(** Two-dimensional adaptive oblivious transfer (paper §III-C,
    Algorithms 1–2).

    The server holds an n×m matrix of equal-length byte-string payloads.
    After a one-time initialisation that publishes a masked table, each
    user query retrieves the payload of exactly one (row, column) cell:
    the server learns nothing about which cell, and the user can unmask no
    other cell (one-and-only-one transfer). *)

open Lbq_bignum
open Lbq_group
module Counters = Lbq_metrics.Counters

(** User → server: ElGamal encryptions of the row and column selectors. *)
type query = { c1 : Elgamal.ciphertext; c2 : Elgamal.ciphertext }

(** Server → user: one ciphertext pair per row and per column. *)
type response = {
  rows : (Z.t * Z.t) array;
  cols : (Z.t * Z.t) array;
}

(** Byte length of one serialized group element (the paper's L/8). *)
val element_len : Schnorr.t -> int

(** Wire sizes, matching Table I's communication column. *)
val query_bytes : Schnorr.t -> query -> int

val response_bytes : Schnorr.t -> response -> int

(** Mask derivation H(g^{R_i} ‖ g^{C_j}) (SHA-1, MGF1-expanded for payloads
    longer than one digest).  Exposed for tests. *)
val derive_mask : element_len:int -> w1:Z.t -> w2:Z.t -> len:int -> string

module Server : sig
  type t

  (** Algorithm 1: draw R_i, C_j, mask every payload, publish the table.
      Raises [Invalid_argument] on a ragged matrix or unequal payload
      lengths (unequal lengths would leak which cell was fetched). *)
  val init :
    group:Schnorr.t -> rand:(int -> string) -> ?metrics:Counters.t ->
    string array array -> t

  val rows : t -> int
  val cols : t -> int
  val payload_len : t -> int
  val group : t -> Schnorr.t

  (** The published masked table Y. *)
  val masked_table : t -> string array array

  (** Algorithm 2, server side: 3 exponentiations per row plus 3 per
      column (the Table I server cost 3n + 3m), executed through the
      stage-1 engine — per-axis fixed-base comb (or odd-powers table on
      short axes) for A^{r_a}, a running
      product for g^alpha * B, and one Straus ladder for
      g^{R_alpha} * shifted^{r_a}.  [rand] overrides the server's DRBG
      for this response (per-request forking under parallel serving;
      deterministic given the substitute). *)
  val respond : ?rand:(int -> string) -> t -> query -> response

  (** [respond] plus [(predicted, measured)]: the closed-form
      multiplication count of the engine's schedule and the count the
      group's engine ticked ({!Schnorr.counting}) over the answer
      arithmetic (membership checks excluded).  The two are equal by construction; benches
      assert it.  Attaches a counter to the group's shared context —
      single-threaded callers only. *)
  val respond_counted :
    ?rand:(int -> string) -> t -> query -> response * int * int

  (** The seed-revision generic square-and-multiply path, on plain
      {!Lbq_bignum.Z.mod_pow_naive} and [Z.mul] + [Z.erem] modulo [p]
      (no code shared with the group's Montgomery engine):
      byte-identity oracle for [respond] under a fixed DRBG and the
      [bench ot] ablation baseline.  Stays in the library because it
      reads the server's secret row/column exponents. *)
  val respond_reference : ?rand:(int -> string) -> t -> query -> response
end

module Client : sig
  type state

  (** Algorithm 2, user side (4 exponentiations): encrypt the selectors
      [g^{-i} y^{r}] and [g^{-j} y^{r}] under a fresh key. *)
  val query :
    group:Schnorr.t -> rand:(int -> string) -> ?metrics:Counters.t ->
    i:int -> j:int -> unit -> state * query

  (** Unmask the queried payload (2 exponentiations). *)
  val decode : state -> masked:string array array -> response -> string

  (** Dishonest decode at an unauthorised cell — yields an unpredictable
      byte string, never the payload (server security, §IV-B).  Exposed
      for tests and the malicious-user example. *)
  val decode_at :
    state -> masked:string array array -> response -> i:int -> j:int -> string
end
