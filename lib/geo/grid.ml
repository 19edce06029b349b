(* The two grids of the protocol (§III-B, Figures 3-4):

   - the PUBLIC grid P: an m-column × n-row lattice over the user's square
     cloaking region CR, chosen by the user (at least the server-defined
     minimum dimensions);
   - the PRIVATE partition Q: the server's own a×b partition of its POI
     records over the same area, every cell padded with dummy records to a
     uniform rmax (unequal cell sizes would let the server fingerprint
     queries).

   The association maps each public cell P_{i,j} to the private cell
   Q containing its centre; the OT payload for P_{i,j} is that private
   cell's id and key. *)

type cell = { row : int; col : int }

let cell_equal a b = a.row = b.row && a.col = b.col
let pp_cell fmt c = Format.fprintf fmt "P[%d,%d]" c.row c.col

(* ------------------------------------------------------------------ *)
(* A lattice over a rectangle                                           *)
(* ------------------------------------------------------------------ *)

type lattice = {
  area : Coord.Rect.t;
  rows : int;   (* n *)
  cols : int;   (* m *)
}

let lattice ~area ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Grid.lattice: empty";
  { area; rows; cols }

let lattice_rows l = l.rows
let lattice_cols l = l.cols

let cell_width l = Coord.Rect.width l.area /. float_of_int l.cols
let cell_height l = Coord.Rect.height l.area /. float_of_int l.rows

(* The cell containing a coordinate; boundary points go to the lower cell,
   the far edges clamp inward so the whole closed rectangle is covered. *)
let cell_of_coord l (c : Coord.t) : cell =
  if not (Coord.Rect.contains l.area c) then
    invalid_arg "Grid.cell_of_coord: outside the area";
  let fx = (Coord.x c -. Coord.x (Coord.Rect.min l.area)) /. cell_width l in
  let fy = (Coord.y c -. Coord.y (Coord.Rect.min l.area)) /. cell_height l in
  let clamp v hi = min (max v 0) (hi - 1) in
  { col = clamp (int_of_float fx) l.cols; row = clamp (int_of_float fy) l.rows }

let cell_rect l (c : cell) : Coord.Rect.t =
  if c.row < 0 || c.row >= l.rows || c.col < 0 || c.col >= l.cols then
    invalid_arg "Grid.cell_rect: out of range";
  let x0 = Coord.x (Coord.Rect.min l.area) +. (float_of_int c.col *. cell_width l) in
  let y0 = Coord.y (Coord.Rect.min l.area) +. (float_of_int c.row *. cell_height l) in
  Coord.Rect.make
    ~min:(Coord.make ~x:x0 ~y:y0)
    ~max:(Coord.make ~x:(x0 +. cell_width l) ~y:(y0 +. cell_height l))

let cell_center l c = Coord.Rect.center (cell_rect l c)

(* ------------------------------------------------------------------ *)
(* Private partition Q                                                  *)
(* ------------------------------------------------------------------ *)

type partition = {
  q : lattice;
  rmax : int;                       (* records per cell, uniform *)
  cells : Poi.t list array;         (* row-major; exactly rmax each *)
  real_counts : int array;          (* non-dummy count per cell *)
  mutable next_dummy : int;         (* next free padding-record id *)
}

let q_lattice p = p.q
let rmax p = p.rmax

let q_index (p : partition) (c : cell) : int = (c.row * p.q.cols) + c.col

let cell_count p = p.q.rows * p.q.cols

(* Inverse of [q_index]: the row/col cell of a flat IDQ. *)
let cell_of_index (p : partition) (idx : int) : cell =
  if idx < 0 || idx >= cell_count p then
    invalid_arg "Grid.cell_of_index: out of range";
  { row = idx / p.q.cols; col = idx mod p.q.cols }

(* POIs of a private cell by flat index (the IDQ of the protocol). *)
let cell_pois (p : partition) (idx : int) : Poi.t list =
  if idx < 0 || idx >= cell_count p then invalid_arg "Grid.cell_pois: out of range";
  p.cells.(idx)

let real_count p idx = p.real_counts.(idx)

(* Partition the POIs over an a×b lattice on [area].  Every cell is padded
   with dummies up to [rmax] (default: the maximum real occupancy).
   Raises if a cell exceeds a caller-supplied rmax — variation in cell
   size "could lead to the server identifying the user" (§III-B), so it is
   a hard error, never silently truncated. *)
let partition ?rmax ~area ~rows ~cols (pois : Poi.t list) : partition =
  let q = lattice ~area ~rows ~cols in
  let buckets = Array.make (rows * cols) [] in
  List.iter
    (fun poi ->
      if Poi.is_dummy poi then invalid_arg "Grid.partition: dummy input";
      let c = cell_of_coord q (Poi.position poi) in
      let i = (c.row * cols) + c.col in
      buckets.(i) <- poi :: buckets.(i))
    pois;
  let real_counts = Array.map List.length buckets in
  let max_occupancy = Array.fold_left max 0 real_counts in
  let rmax =
    match rmax with
    | None -> max max_occupancy 1
    | Some r ->
      if r < max_occupancy then
        invalid_arg "Grid.partition: a cell exceeds rmax"
      else r
  in
  (* Dummy ids live above every real id so they can never collide. *)
  let max_id =
    List.fold_left (fun acc poi -> max acc (Poi.id poi)) 0 pois
  in
  let next_dummy = ref (max_id + 1) in
  let cells =
    Array.map
      (fun bucket ->
        let missing = rmax - List.length bucket in
        let dummies =
          List.init missing (fun _ ->
              let d = Poi.dummy ~id:!next_dummy in
              incr next_dummy;
              d)
        in
        List.rev_append bucket dummies)
      buckets
  in
  { q; rmax; cells; real_counts; next_dummy = !next_dummy }

(* Replace the real records of one cell — the streaming-update entry
   point.  The uniform-occupancy invariant is the same privacy
   requirement as at build time, so input dummies and rmax overflow are
   hard errors, never silently fixed; the cell is re-padded to rmax
   with fresh dummy ids drawn above every id the partition has used. *)
let set_cell_pois (p : partition) (idx : int) (pois : Poi.t list) : unit =
  if idx < 0 || idx >= cell_count p then
    invalid_arg "Grid.set_cell_pois: out of range";
  List.iter
    (fun poi ->
      if Poi.is_dummy poi then invalid_arg "Grid.set_cell_pois: dummy input";
      if not (cell_equal (cell_of_coord p.q (Poi.position poi))
                (cell_of_index p idx))
      then invalid_arg "Grid.set_cell_pois: POI outside the cell")
    pois;
  let real = List.length pois in
  if real > p.rmax then invalid_arg "Grid.set_cell_pois: cell exceeds rmax";
  List.iter
    (fun poi ->
      if Poi.id poi >= p.next_dummy then p.next_dummy <- Poi.id poi + 1)
    pois;
  let dummies =
    List.init (p.rmax - real) (fun _ ->
        let d = Poi.dummy ~id:p.next_dummy in
        p.next_dummy <- p.next_dummy + 1;
        d)
  in
  p.cells.(idx) <- pois @ dummies;
  p.real_counts.(idx) <- real

(* ------------------------------------------------------------------ *)
(* Public-to-private association (the key table's geometry)             *)
(* ------------------------------------------------------------------ *)

(* The private cell id backing public cell [c] of lattice [p]: the Q cell
   containing P_{i,j}'s centre.  Requires the public area to lie inside
   the partitioned area. *)
let associate (p : lattice) (part : partition) (c : cell) : int =
  let centre = cell_center p c in
  if not (Coord.Rect.contains (Coord.Rect.make
                                 ~min:(Coord.Rect.min part.q.area)
                                 ~max:(Coord.Rect.max part.q.area)) centre)
  then invalid_arg "Grid.associate: public grid outside the private area";
  q_index part (cell_of_coord part.q centre)
