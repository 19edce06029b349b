(* Synthetic POI workloads.  The paper evaluates on synthetic matrices of
   random data; we go slightly further and generate city-like POI layouts
   (dense clusters plus uniform background) so the examples and benches
   exercise realistic skew.  Everything is deterministic given the seed. *)

open Lbq_crypto

type spec = {
  area : Coord.Rect.t;
  count : int;
  clusters : int;            (* number of dense centres *)
  cluster_fraction : float;  (* share of POIs inside clusters *)
  cluster_radius : float;    (* cluster std-dev in metres *)
  categories : string array;
}

let default_categories =
  [| "atm"; "cafe"; "fuel"; "hospital"; "police"; "pharmacy"; "hotel"; "parking" |]

let city ?(side = 10_000.) ?(count = 2_000) ?(clusters = 8)
    ?(cluster_fraction = 0.7) () =
  { area =
      Coord.Rect.make ~min:(Coord.make ~x:0. ~y:0.)
        ~max:(Coord.make ~x:side ~y:side);
    count; clusters; cluster_fraction; cluster_radius = 400.;
    categories = default_categories }

(* Uniform float in [0, 1) from 8 DRBG bytes. *)
let uniform drbg =
  let s = Drbg.bytes drbg 8 in
  let v = ref 0 in
  (* 52 bits of mantissa is plenty. *)
  for i = 0 to 5 do
    v := (!v lsl 8) lor Char.code s.[i]
  done;
  float_of_int !v /. float_of_int (1 lsl 48)

(* Standard normal via Box-Muller. *)
let gaussian drbg =
  let u1 = Float.max (uniform drbg) 1e-12 and u2 = uniform drbg in
  Float.sqrt (-2. *. Float.log u1) *. Float.cos (2. *. Float.pi *. u2)

let in_area area c = Coord.Rect.contains area c

let generate ?(seed = "lbq-synth") (spec : spec) : Poi.t list =
  if spec.count <= 0 then invalid_arg "Synth.generate: count <= 0";
  if Array.length spec.categories = 0 then
    invalid_arg "Synth.generate: no categories";
  let drbg = Drbg.create ~domain:"synth" ~seed () in
  let minc = Coord.Rect.min spec.area and w = Coord.Rect.width spec.area in
  let h = Coord.Rect.height spec.area in
  let random_point () =
    Coord.make
      ~x:(Coord.x minc +. (uniform drbg *. w))
      ~y:(Coord.y minc +. (uniform drbg *. h))
  in
  let centres = Array.init (max spec.clusters 1) (fun _ -> random_point ()) in
  let rec clustered_point () =
    let centre = centres.(Drbg.int drbg (Array.length centres)) in
    let c =
      Coord.make
        ~x:(Coord.x centre +. (gaussian drbg *. spec.cluster_radius))
        ~y:(Coord.y centre +. (gaussian drbg *. spec.cluster_radius))
    in
    if in_area spec.area c then c else clustered_point ()
  in
  List.init spec.count (fun id ->
      let position =
        if spec.clusters > 0
           && uniform drbg < spec.cluster_fraction
        then clustered_point ()
        else random_point ()
      in
      let category = spec.categories.(Drbg.int drbg (Array.length spec.categories)) in
      Poi.make ~id ~position ~category
        ~name:(Printf.sprintf "%s-%04d" category id))

(* A deterministic update stream over an existing partition: each step
   picks a cell and replaces its real records with a fresh draw of
   [0, rmax] POIs placed inside that cell — the churn a live OSM-style
   feed would produce.  Ids count up from 1_000_000 so they never
   collide with the build-time database (whose ids are list indices).
   Points are inset from the cell edges so float rounding can never
   re-bucket one into a neighbour. *)
let churn ?(seed = "lbq-churn") ~(partition : Grid.partition) ~steps ()
    : Poi_file.update list =
  if steps <= 0 then invalid_arg "Synth.churn: steps <= 0";
  let drbg = Drbg.create ~domain:"churn" ~seed () in
  let q = Grid.q_lattice partition in
  let cells = Grid.cell_count partition in
  let rmax = Grid.rmax partition in
  let next_id = ref 1_000_000 in
  List.init steps (fun _ ->
      let cell = Drbg.int drbg cells in
      let rect = Grid.cell_rect q (Grid.cell_of_index partition cell) in
      let minc = Coord.Rect.min rect in
      let w = Coord.Rect.width rect and h = Coord.Rect.height rect in
      let inset lo span u = lo +. (span *. (0.05 +. (0.9 *. u))) in
      let count = Drbg.int drbg (rmax + 1) in
      let pois =
        List.init count (fun _ ->
            let id = !next_id in
            incr next_id;
            let position =
              Coord.make
                ~x:(inset (Coord.x minc) w (uniform drbg))
                ~y:(inset (Coord.y minc) h (uniform drbg))
            in
            let pick = Drbg.int drbg (Array.length default_categories) in
            let category = default_categories.(pick) in
            Poi.make ~id ~position ~category
              ~name:(Printf.sprintf "%s-%04d" category id))
      in
      { Poi_file.cell; pois })

(* A user trajectory: a random walk of [steps] positions inside the area,
   step length [stride] metres (for the repeated-query example). *)
let walk ?(seed = "lbq-walk") ~area ~steps ~stride () : Coord.t list =
  if steps <= 0 then invalid_arg "Synth.walk: steps <= 0";
  let drbg = Drbg.create ~domain:"walk" ~seed () in
  let minc = Coord.Rect.min area and maxc = Coord.Rect.max area in
  let clamp v lo hi = Float.min (Float.max v lo) hi in
  let start =
    Coord.make
      ~x:(Coord.x minc +. (uniform drbg *. Coord.Rect.width area))
      ~y:(Coord.y minc +. (uniform drbg *. Coord.Rect.height area))
  in
  let rec go acc current n =
    if n = 0 then List.rev acc
    else begin
      let angle = uniform drbg *. 2. *. Float.pi in
      let next =
        Coord.make
          ~x:(clamp (Coord.x current +. (stride *. Float.cos angle))
                (Coord.x minc) (Coord.x maxc))
          ~y:(clamp (Coord.y current +. (stride *. Float.sin angle))
                (Coord.y minc) (Coord.y maxc))
      in
      go (next :: acc) next (n - 1)
    end
  in
  go [ start ] start (steps - 1)
