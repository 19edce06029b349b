(* Application-level queries on top of the round primitive.

   The paper's protocol returns the POI block of the private cell the
   user stands in; its motivating queries ("the nearest ATM", §I) need a
   little more, because the nearest POI may sit in an adjacent cell.
   This layer runs the k-nearest-neighbour search a client would actually
   ship: fetch the clipped 3x3 private-cell neighbourhood of the user's
   own cell, and report whether the answer is exact — i.e. whether any
   unfetched cell could still hide a closer POI.

   Privacy note: every fetch is an ordinary round, so the LS learns
   nothing about which cell any of them asked for; what it does see is
   how many rounds a query spends.  That count depends on [widen] alone:
   one round without it, [block_rounds] with it, whether the user stands
   in the interior, on an edge or in a corner of the grid, and whether
   or not the answer can be certified.  A block with fewer fetchable
   cells is padded with re-fetches of cells inside it.  All geometry used
   here is public information. *)

open Lbq_geo

(* How a round is executed — plain [Protocol.run_round client server] or a
   network session; the query layer does not care. *)
type round_fn = position:Coord.t -> Protocol.round_result

type result = {
  pois : Poi.t list;    (* up to k, closest first *)
  rounds : int;         (* protocol rounds spent *)
  exact : bool;         (* no unfetched cell can hide a closer POI *)
  radius : float;       (* distance within which the answer is complete *)
}

(* Rounds of a widened query: one per cell of a full 3x3 block. *)
let block_rounds = 9

(* The private-grid lattice is public geometry (dimensions + area). *)
let q_lattice (info : Server.public_info) : Grid.lattice =
  let p = info.Server.params in
  Grid.lattice ~area:info.Server.area ~rows:p.Params.private_rows
    ~cols:p.Params.private_cols

(* Map each private cell to the centre of one public cell whose centre
   lies in it: querying there returns that private cell's block, as the
   server associates cells by centre (Grid.associate).  Purely
   geometric, computed from public info. *)
let public_centre_for (info : Server.public_info) : (int, Coord.t) Hashtbl.t =
  let q = q_lattice info in
  let cols_q = Grid.lattice_cols q in
  let map = Hashtbl.create 16 in
  let p = info.Server.public_grid in
  for row = 0 to Grid.lattice_rows p - 1 do
    for col = 0 to Grid.lattice_cols p - 1 do
      let centre = Grid.cell_center p { Grid.row; col } in
      let qc = Grid.cell_of_coord q centre in
      let idx = (qc.Grid.row * cols_q) + qc.Grid.col in
      if not (Hashtbl.mem map idx) then Hashtbl.add map idx centre
    done
  done;
  map

(* Distance from [position] to the boundary of the axis-aligned union of
   the fetched cells (a rectangle here: the 3x3 clipped neighbourhood).
   Any POI closer than this is guaranteed to lie in a fetched cell. *)
let boundary_distance (rect : Coord.Rect.t) ~(area : Coord.Rect.t)
    (position : Coord.t) : float =
  let x = Coord.x position and y = Coord.y position in
  let candidates =
    [ (if Coord.x (Coord.Rect.min rect) > Coord.x (Coord.Rect.min area) +. 1e-9
       then Some (x -. Coord.x (Coord.Rect.min rect)) else None);
      (if Coord.x (Coord.Rect.max rect) < Coord.x (Coord.Rect.max area) -. 1e-9
       then Some (Coord.x (Coord.Rect.max rect) -. x) else None);
      (if Coord.y (Coord.Rect.min rect) > Coord.y (Coord.Rect.min area) +. 1e-9
       then Some (y -. Coord.y (Coord.Rect.min rect)) else None);
      (if Coord.y (Coord.Rect.max rect) < Coord.y (Coord.Rect.max area) -. 1e-9
       then Some (Coord.y (Coord.Rect.max rect) -. y) else None) ]
  in
  List.fold_left
    (fun acc c -> match c with Some d -> Float.min acc d | None -> acc)
    Float.infinity candidates

(* k nearest POIs around [position].  [widen] (default true) fetches the
   clipped 3x3 neighbourhood of the own private cell in [block_rounds]
   rounds; [widen:false] spends one round at the true position, which
   returns the block of the private cell the user's public cell is
   associated with. *)
let k_nearest ?(widen = true) (info : Server.public_info) (run : round_fn)
    ~(k : int) ~(position : Coord.t) : result =
  if k <= 0 then invalid_arg "Queries.k_nearest: k <= 0";
  let q = q_lattice info in
  let cols_q = Grid.lattice_cols q in
  let index (c : Grid.cell) = (c.Grid.row * cols_q) + c.Grid.col in
  let own = Grid.cell_of_coord q position in
  let span = if widen then 1 else 0 in
  let r0 = max 0 (own.Grid.row - span) in
  let r1 = min (Grid.lattice_rows q - 1) (own.Grid.row + span) in
  let c0 = max 0 (own.Grid.col - span) in
  let c1 = min (Grid.lattice_cols q - 1) (own.Grid.col + span) in
  let region =
    List.concat_map
      (fun row -> List.init (c1 - c0 + 1) (fun i -> index { Grid.row; col = c0 + i }))
      (List.init (r1 - r0 + 1) (fun i -> r0 + i))
  in
  (* Round targets, as (private cell it returns, position to query). *)
  let at_position =
    let pub = info.Server.public_grid in
    index
      (Grid.cell_of_coord q (Grid.cell_center pub (Grid.cell_of_coord pub position))),
    position
  in
  let targets =
    if not widen then [ at_position ]
    else begin
      let centres = public_centre_for info in
      match
        List.filter_map
          (fun idx -> Option.map (fun c -> idx, c) (Hashtbl.find_opt centres idx))
          region
      with
      | [] -> [ at_position ]
      | block -> block
    end
  in
  let targets = Array.of_list targets in
  let rounds = if widen then block_rounds else 1 in
  let fetched : (int, Poi.t list) Hashtbl.t = Hashtbl.create 9 in
  for i = 0 to rounds - 1 do
    let idx, at = targets.(i mod Array.length targets) in
    Hashtbl.replace fetched idx (run ~position:at).Protocol.pois
  done;
  let all = Hashtbl.fold (fun _ pois acc -> pois @ acc) fetched [] in
  let best = Nn.k_nearest ~k ~from:position all in
  let rect =
    let lo = Grid.cell_rect q { Grid.row = r0; col = c0 } in
    let hi = Grid.cell_rect q { Grid.row = r1; col = c1 } in
    Coord.Rect.make ~min:(Coord.Rect.min lo) ~max:(Coord.Rect.max hi)
  in
  let radius = boundary_distance rect ~area:info.Server.area position in
  (* Exact only when every cell of the region was fetched and the k-th
     answer lies within the region's boundary distance. *)
  let exact =
    List.for_all (Hashtbl.mem fetched) region
    && (match List.nth_opt best (k - 1) with
        | Some worst -> Coord.distance position (Poi.position worst) <= radius
        | None -> false)
  in
  { pois = best; rounds; exact; radius }

(* Nearest single POI; [None] if the fetched region is empty. *)
let nearest ?widen info run ~position : (Poi.t * result) option =
  let r = k_nearest ?widen info run ~k:1 ~position in
  match r.pois with p :: _ -> Some (p, r) | [] -> None
