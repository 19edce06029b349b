(* In-memory spans around the calls the benchmark makes into each
   layer.  A span is a named interval of one round; spans are only
   appended during the timed loop and written out once at the end. *)

type span = {
  name : string;      (* "<layer>.<call>", e.g. "client.stage2_decode" *)
  round : int;
  t0 : float;
  t1 : float;
}

type t = { mutable spans : span list }

let now = Unix.gettimeofday
let create () = { spans = [] }

let add t ~name ~round t0 t1 =
  t.spans <- { name; round; t0; t1 } :: t.spans

(* Time [f ()] as one span when [t] is given; run it bare otherwise. *)
let span t ~name ~round f =
  match t with
  | None -> f ()
  | Some t ->
    let t0 = now () in
    let r = f () in
    add t ~name ~round t0 (now ());
    r

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let spans t = List.rev t.spans

(* Per-round total duration of every span whose name satisfies [keep],
   in round order (rounds with no matching span are skipped). *)
let per_round t keep =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if keep s.name then
        Hashtbl.replace tbl s.round
          ((s.t1 -. s.t0)
           +. Option.value ~default:0. (Hashtbl.find_opt tbl s.round)))
    t.spans;
  let rounds = List.sort compare (Hashtbl.fold (fun r _ acc -> r :: acc) tbl []) in
  Array.of_list (List.map (Hashtbl.find tbl) rounds)

(* One JSON object per line: name, round, start and end in ms since
   the first span began. *)
let write t path =
  let origin = match t.spans with [] -> 0. | _ -> List.fold_left (fun a s -> Float.min a s.t0) infinity t.spans in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"name\":\"%s\",\"layer\":\"%s\",\"round\":%d,\"start_ms\":%.4f,\"end_ms\":%.4f}\n"
        s.name (layer s.name) s.round
        ((s.t0 -. origin) *. 1e3) ((s.t1 -. origin) *. 1e3))
    (spans t);
  close_out oc
