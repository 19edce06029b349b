(** Deterministic synthetic POI workloads (clustered city layouts) and
    user trajectories.  The paper's own evaluation uses synthetic data;
    these generators add realistic spatial skew. *)

type spec = {
  area : Coord.Rect.t;
  count : int;
  clusters : int;
  cluster_fraction : float;
  cluster_radius : float;
  categories : string array;
}

(** A [side]-metre square city. *)
val city :
  ?side:float -> ?count:int -> ?clusters:int -> ?cluster_fraction:float ->
  unit -> spec

(** Deterministic in [seed]. *)
val generate : ?seed:string -> spec -> Poi.t list

(** Deterministic churn stream over an existing partition: [steps]
    cell-replacement updates, each a fresh draw of [0, rmax] POIs placed
    strictly inside the chosen cell, with ids counting up from 1_000_000
    so they never collide with build-time ids.
    Suitable for [Server.update_cell] replay and the update bench. *)
val churn :
  ?seed:string -> partition:Grid.partition -> steps:int -> unit ->
  Poi_file.update list

(** Random walk of [steps] positions, [stride] metres apart. *)
val walk :
  ?seed:string -> area:Coord.Rect.t -> steps:int -> stride:float -> unit ->
  Coord.t list
