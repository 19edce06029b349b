(** Plaintext nearest-neighbour search over a POI list: the ranking
    behind {!Lbq_core.Queries}, and the ground truth that examples and
    tests compare protocol answers against.  Dummy records are always
    excluded. *)

(** The [k] nearest POIs, closest first (ties by id). *)
val k_nearest : k:int -> from:Coord.t -> Poi.t list -> Poi.t list

val nearest : from:Coord.t -> Poi.t list -> Poi.t option
