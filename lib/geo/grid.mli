(** The protocol's two grids (§III-B, Figures 3–4): the user's public grid
    P over the cloaking region, and the server's private partition Q with
    uniform per-cell occupancy. *)

type cell = { row : int; col : int }

val cell_equal : cell -> cell -> bool
val pp_cell : Format.formatter -> cell -> unit

(** {1 Lattices} *)

type lattice

val lattice : area:Coord.Rect.t -> rows:int -> cols:int -> lattice
val lattice_rows : lattice -> int
val lattice_cols : lattice -> int
val cell_width : lattice -> float
val cell_height : lattice -> float

(** Cell containing a coordinate; raises [Invalid_argument] outside the
    area.  The closed rectangle is fully covered (edges clamp inward). *)
val cell_of_coord : lattice -> Coord.t -> cell

val cell_rect : lattice -> cell -> Coord.Rect.t
val cell_center : lattice -> cell -> Coord.t

(** {1 The private partition Q} *)

type partition

val q_lattice : partition -> lattice

(** Uniform per-cell record count (after dummy padding). *)
val rmax : partition -> int

(** Flat cell id — the IDQ of the protocol. *)
val q_index : partition -> cell -> int

val cell_count : partition -> int

(** Inverse of {!q_index}: the row/col cell of a flat id.  Raises
    [Invalid_argument] out of range. *)
val cell_of_index : partition -> int -> cell

(** Exactly [rmax] records, real ones first. *)
val cell_pois : partition -> int -> Poi.t list

(** Replace the real records of one cell and re-pad to [rmax] with
    fresh dummy ids — the streaming-update entry point.  Raises
    [Invalid_argument] when the index is out of range, a record is a
    dummy or lies outside the cell, or the cell would exceed [rmax]
    (uniform occupancy is a privacy invariant, same as at build). *)
val set_cell_pois : partition -> int -> Poi.t list -> unit

(** Non-dummy count of a cell. *)
val real_count : partition -> int -> int

(** Bucket the POIs into a rows×cols lattice over [area] and pad every
    cell to [rmax] (default: max occupancy) with dummies.  A cell
    exceeding a caller-supplied [rmax] raises — record-count variation
    would let the server identify users, so it is never silently fixed. *)
val partition :
  ?rmax:int -> area:Coord.Rect.t -> rows:int -> cols:int -> Poi.t list ->
  partition

(** {1 Association} *)

(** The private cell backing public cell [c]: the Q cell containing its
    centre (the key table's geometry, Figure 4). *)
val associate : lattice -> partition -> cell -> int
