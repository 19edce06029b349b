(* Nearest-neighbour reference search.  This is the ground truth the
   examples check protocol answers against: the protocol returns the POIs
   of the user's cell, and the examples compare them with a plaintext
   k-NN over the full database. *)

(* The [k] nearest non-dummy POIs to [from], closest first; ties broken by
   id for determinism. *)
let k_nearest ~(k : int) ~(from : Coord.t) (pois : Poi.t list) : Poi.t list =
  if k < 0 then invalid_arg "Nn.k_nearest: negative k";
  let compare_by_distance a b =
    let c =
      Float.compare
        (Coord.distance_sq from (Poi.position a))
        (Coord.distance_sq from (Poi.position b))
    in
    if c <> 0 then c else Int.compare (Poi.id a) (Poi.id b)
  in
  pois
  |> List.filter (fun p -> not (Poi.is_dummy p))
  |> List.sort compare_by_distance
  |> List.filteri (fun i _ -> i < k)

let nearest ~from pois =
  match k_nearest ~k:1 ~from pois with
  | [ p ] -> Some p
  | _ -> None
