(** Application-level k-nearest-neighbour queries over the round
    primitive: fetch the clipped 3×3 private-cell neighbourhood of the
    user's own cell and report the certified radius.  Every fetch is an
    ordinary round — the server learns nothing about any of them — and
    the number of rounds depends only on [widen], never on where the
    user stands or on whether the answer certifies. *)

open Lbq_geo

(** How to execute one protocol round (local driver or network session). *)
type round_fn = position:Coord.t -> Protocol.round_result

type result = {
  pois : Poi.t list;   (** up to k, closest first *)
  rounds : int;        (** protocol rounds spent *)
  exact : bool;        (** no unfetched cell can hide a closer POI *)
  radius : float;      (** the answer is complete within this distance *)
}

(** Rounds a widened query spends: one per cell of a full 3×3 block.
    Blocks clipped by the grid's edge, or with cells no public cell
    reaches, are padded with re-fetches to this count. *)
val block_rounds : int

(** [k_nearest info run ~k ~position].  [widen:true] (the default)
    spends {!block_rounds} rounds on the 3×3 neighbourhood;
    [widen:false] spends one round at [position], like the bare paper
    protocol.  Raises [Invalid_argument] when [k <= 0]. *)
val k_nearest :
  ?widen:bool -> Server.public_info -> round_fn -> k:int ->
  position:Coord.t -> result

val nearest :
  ?widen:bool -> Server.public_info -> round_fn -> position:Coord.t ->
  (Poi.t * result) option
