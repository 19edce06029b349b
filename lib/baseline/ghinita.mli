(** The comparison baseline: Ghinita et al.'s hybrid protocol (Paillier
    homomorphic cell-membership test + quadratic-residuosity PIR), at the
    fidelity of the paper's §V cost analysis.

    Stage-1 cost is O(n·m) exponentiations against the paper protocol's
    O(n + m), and cell blocks are not individually keyed — the two axes on
    which the paper claims its improvements. *)

open Lbq_bignum
open Lbq_group
open Lbq_geo
module Qr_pir = Lbq_qrpir.Qr_pir
module Counters = Lbq_metrics.Counters

exception Protocol_error of string

(** Paillier encryptions of the user's coordinates (plus her public key). *)
type stage1_query = { ex : Z.t; ey : Z.t; pub : Paillier.public_key }

(** Four blinded differences per membership-grid cell, row-major. *)
type stage1_response = (Z.t * Z.t * Z.t * Z.t) array

type t

val create :
  ?metrics:Counters.t -> ?seed:string -> area:Coord.Rect.t -> grid_rows:int ->
  grid_cols:int -> private_rows:int -> private_cols:int -> rmax:int ->
  Poi.t list -> t

val grid : t -> Grid.lattice
val partition : t -> Grid.partition

(** 4(n·m) exponentiations; 4(n·m) ciphertexts back. *)
val stage1_respond : t -> stage1_query -> stage1_response

val stage2_respond : t -> n:Z.t -> Z.t array -> Z.t array array

module Client : sig
  type client

  val create :
    ?metrics:Counters.t -> ?seed:string -> ?paillier_bits:int ->
    ?qr_bits:int -> t -> client

  (** The client's QR modulus (sent alongside stage-2 queries). *)
  val qr_modulus : client -> Z.t

  val stage1_query : client -> Coord.t -> stage1_query

  (** Decrypts blinded differences until the containing cell is found.
      Raises {!Protocol_error} when no cell contains the user. *)
  val stage1_decode : client -> stage1_response -> Grid.cell

  val stage2_query :
    client -> target:Grid.cell -> Qr_pir.Client.state * Z.t array

  val stage2_decode :
    client -> Qr_pir.Client.state -> Z.t array array -> target:Grid.cell ->
    Poi.t list
end

(** One full round; returns the POIs and the membership cell found. *)
val run_round :
  Client.client -> t -> position:Coord.t -> Poi.t list * Grid.cell
