(* The deployment every workload runs against, the seeded inputs, and
   the trusted model the decoded answers are checked against. *)

open Lbq_geo
module Params = Lbq_core.Params
module Server = Lbq_core.Server
module Schnorr = Lbq_group.Schnorr
module Drbg = Lbq_crypto.Drbg

type size = Mid64 | Toy

(* "mid-64": 512-bit group, 64-bit PIR cofactors, 16x16 public grid
   over an 8x8 private grid, one record per private cell.  Toy, for the
   smoke mode, is the test-suite deployment (Params.test: 256-bit
   group, 24-bit cofactors, 5x5 over 3x3) with mid-64's one record per
   cell; at Params.test's two records the PIR prime powers are ~1150
   bits and each inline prime search takes about a second. *)
let params size ~seed =
  match size with
  | Mid64 ->
    Params.make ~group:(Schnorr.mid_group ()) ~q_bits:64 ~public_rows:16
      ~public_cols:16 ~private_rows:8 ~private_cols:8 ~rmax:1
      ~seed:(seed ^ "/params") ()
  | Toy ->
    let t = Params.test ~seed:(seed ^ "/params") () in
    Params.make ~group:t.Params.group ~q_bits:t.Params.q_bits
      ~public_rows:t.Params.public_rows ~public_cols:t.Params.public_cols
      ~private_rows:t.Params.private_rows ~private_cols:t.Params.private_cols
      ~rmax:1 ~seed:t.Params.seed ()

let size_name = function Mid64 -> "mid-64" | Toy -> "toy"

(* The synthetic city of [lbq]'s build_city: a clustered POI draw over
   a square of 1 km per private column, capped at rmax per private
   cell. *)
let city ~seed (params : Params.t) =
  let side = 1000. *. float_of_int params.Params.private_cols in
  let area =
    Coord.Rect.make ~min:(Coord.make ~x:0. ~y:0.)
      ~max:(Coord.make ~x:side ~y:side)
  in
  let raw =
    Synth.generate ~seed:(seed ^ "/city")
      (Synth.city ~side ~count:(Params.private_cells params * 6) ~clusters:3 ())
  in
  let q =
    Grid.lattice ~area ~rows:params.Params.private_rows
      ~cols:params.Params.private_cols
  in
  let counts = Hashtbl.create 32 in
  let pois =
    List.filter
      (fun p ->
        let c = Grid.cell_of_coord q (Poi.position p) in
        let k = (c.Grid.row * params.Params.private_cols) + c.Grid.col in
        let seen = Option.value ~default:0 (Hashtbl.find_opt counts k) in
        if seen < params.Params.rmax then begin
          Hashtbl.replace counts k (seen + 1);
          true
        end
        else false)
      raw
  in
  area, pois

(* Uniform user positions over the area, one stream per user. *)
let position_stream ~seed ~label area =
  let d = Drbg.create ~domain:"perfbench-walk" ~seed:(seed ^ "/" ^ label) () in
  fun () ->
    let frac () = float_of_int (Drbg.int d 1_000_000) /. 1e6 in
    let lo = Coord.Rect.min area and hi = Coord.Rect.max area in
    Coord.make
      ~x:(Coord.x lo +. (frac () *. (Coord.x hi -. Coord.x lo)))
      ~y:(Coord.y lo +. (frac () *. (Coord.y hi -. Coord.y lo)))

(* ------------------------------------------------------------------ *)
(* Trusted model                                                        *)
(* ------------------------------------------------------------------ *)

exception Mismatch of string

let fail fmt = Printf.ksprintf (fun m -> raise (Mismatch m)) fmt

let real pois = List.filter (fun p -> not (Poi.is_dummy p)) pois

let canonical pois = List.sort compare (List.map Poi.encode (real pois))

(* Per private cell, its contents at each epoch, newest first.  Built
   from the server right after set-up, then advanced only by the
   updates the benchmark itself submits. *)
type model = {
  public : Server.public_info;
  partition : Grid.partition;
  history : (int * string list) list array;
}

let model server =
  let partition = Server.partition server in
  {
    public = Server.public_info server;
    partition;
    history =
      Array.init (Grid.cell_count partition) (fun i ->
          [ (0, canonical (Server.trusted_cell_pois server i)) ]);
  }

let model_update m ~epoch ~cell pois =
  m.history.(cell) <- (epoch, canonical pois) :: m.history.(cell)

let expected_cell m position =
  let pub = m.public.Server.public_grid in
  Grid.associate pub m.partition (Grid.cell_of_coord pub position)

(* The answer a user at [position] must decode from a reply served at
   [epoch]: the right private cell, with that epoch's contents. *)
let check m ~position ~epoch ~idq pois =
  let want = expected_cell m position in
  if idq <> want then fail "credential names cell %d, position is in %d" idq want;
  let rec at = function
    | (e, c) :: rest -> if e <= epoch then c else at rest
    | [] -> fail "no contents for cell %d at epoch %d" idq epoch
  in
  if canonical pois <> at m.history.(idq) then
    fail "cell %d decoded other POIs than its epoch-%d contents" idq epoch

(* One public position inside each private cell that some public cell
   maps to (the cells a user can ever land in). *)
let cell_representatives m =
  let pub = m.public.Server.public_grid in
  let reps = Hashtbl.create 64 in
  for row = Grid.lattice_rows pub - 1 downto 0 do
    for col = Grid.lattice_cols pub - 1 downto 0 do
      let c = { Grid.row; col } in
      Hashtbl.replace reps (Grid.associate pub m.partition c) (Grid.cell_center pub c)
    done
  done;
  List.sort compare (Hashtbl.fold (fun idq pos acc -> (idq, pos) :: acc) reps [])

(* A single-cell update stream drawn from the partition's geometry. *)
let churn ~seed m ~steps =
  Synth.churn ~seed:(seed ^ "/churn") ~partition:m.partition ~steps ()
