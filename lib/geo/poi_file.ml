(* Plain-text POI database files: a versioned header plus one
   tab-separated record per line.

     # lbq-poi v1
     <id> TAB <x> TAB <y> TAB <category> TAB <name>

   Dummies are never written (they are per-deployment padding, not data).
   Parsing is strict and reports the first offending line. *)

exception Parse_error of { line : int; message : string }

let header = "# lbq-poi v1"

let fail line message = raise (Parse_error { line; message })

(* The characters a record field cannot hold: the field and line
   separators, and the carriage return of a CRLF line end. *)
let is_control c = c = '\t' || c = '\n' || c = '\r'

let no_control field s =
  if String.exists is_control s then
    invalid_arg ("Poi_file: " ^ field ^ " contains control characters");
  s

let to_line (p : Poi.t) : string =
  ignore (no_control "category" (Poi.category p));
  ignore (no_control "name" (Poi.name p));
  Printf.sprintf "%d\t%.3f\t%.3f\t%s\t%s" (Poi.id p)
    (Coord.x (Poi.position p))
    (Coord.y (Poi.position p))
    (Poi.category p) (Poi.name p)

let of_line ~line (s : string) : Poi.t =
  match String.split_on_char '\t' s with
  | [ id; x; y; category; name ] ->
    let id =
      match int_of_string_opt id with
      | Some v when v >= 0 -> v
      | _ -> fail line "bad id"
    in
    let coord name v =
      match float_of_string_opt v with
      | Some f when Float.is_finite f -> f
      | _ -> fail line ("bad " ^ name)
    in
    let x = coord "x" x and y = coord "y" y in
    (* refused here rather than by [to_line] when the record is saved *)
    if String.exists is_control category || String.exists is_control name then
      fail line "control character in a field";
    (try Poi.make ~id ~position:(Coord.make ~x ~y) ~category ~name
     with Invalid_argument m -> fail line m)
  | _ -> fail line "expected 5 tab-separated fields"

let save_channel (oc : out_channel) (pois : Poi.t list) : unit =
  output_string oc header;
  output_char oc '\n';
  List.iter
    (fun p ->
      if not (Poi.is_dummy p) then begin
        output_string oc (to_line p);
        output_char oc '\n'
      end)
    pois

let load_channel (ic : in_channel) : Poi.t list =
  let first = try input_line ic with End_of_file -> fail 1 "empty file" in
  if not (String.equal (String.trim first) header) then
    fail 1 (Printf.sprintf "bad header (expected %S)" header);
  let rec go acc line =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | s ->
      let trimmed = String.trim s in
      if String.equal trimmed "" || String.length trimmed > 0 && trimmed.[0] = '#'
      then go acc (line + 1)
      else go (of_line ~line s :: acc) (line + 1)
  in
  let pois = go [] 2 in
  (* ids must be unique: duplicates would break the record model. *)
  let seen = Hashtbl.create 64 in
  List.iteri
    (fun i p ->
      if Hashtbl.mem seen (Poi.id p) then
        fail (i + 2) (Printf.sprintf "duplicate id %d" (Poi.id p));
      Hashtbl.replace seen (Poi.id p) ())
    pois;
  pois

let save (path : string) (pois : Poi.t list) : unit =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> save_channel oc pois)

let load (path : string) : Poi.t list =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> load_channel ic)

(* ------------------------------------------------------------------ *)
(* Append-only update logs (OSM-style diff feed)                        *)
(* ------------------------------------------------------------------ *)

(* A log is the versioned header followed by update records, each a
   "cell" line naming the private cell and its record count, then that
   many POI lines in the database format above:

     # lbq-poi-log v1
     cell TAB <idx> TAB <count>
     <id> TAB <x> TAB <y> TAB <category> TAB <name>     (x count)

   Records replay in file order, so later updates of the same cell win —
   exactly how the server applies them.  Dummies are never written (the
   server re-pads on apply); parsing is as strict as [load]: bad counts,
   POI lines outside a record, duplicate ids within a record and — when
   the caller states the grid size — out-of-range cell indices all
   report the first offending line. *)

type update = { cell : int; pois : Poi.t list }

let log_header = "# lbq-poi-log v1"

let update_lines (u : update) : string list =
  if u.cell < 0 then invalid_arg "Poi_file: negative cell index";
  let real = List.filter (fun p -> not (Poi.is_dummy p)) u.pois in
  Printf.sprintf "cell\t%d\t%d" u.cell (List.length real)
  :: List.map to_line real

let append_log_channel (oc : out_channel) (u : update) : unit =
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    (update_lines u)

let save_log_channel (oc : out_channel) (updates : update list) : unit =
  output_string oc log_header;
  output_char oc '\n';
  List.iter (append_log_channel oc) updates

let load_log_channel ?cells (ic : in_channel) : update list =
  let first = try input_line ic with End_of_file -> fail 1 "empty file" in
  if not (String.equal (String.trim first) log_header) then
    fail 1 (Printf.sprintf "bad header (expected %S)" log_header);
  let check_cell ~line idx =
    if idx < 0 then fail line "negative cell index";
    (match cells with
     | Some n when idx >= n ->
       fail line
         (Printf.sprintf "cell index %d out of range (grid has %d cells)" idx n)
     | _ -> ());
    idx
  in
  (* [pending]: the record being filled, with [left] POI lines still
     owed; POI lines may only appear inside a record. *)
  let rec go acc pending line =
    match input_line ic with
    | exception End_of_file ->
      (match pending with
       | Some (_, _, left) when left > 0 -> fail line "truncated update record"
       | Some (cell, pois, _) -> List.rev ({ cell; pois = List.rev pois } :: acc)
       | None -> List.rev acc)
    | s ->
      let trimmed = String.trim s in
      if String.equal trimmed ""
         || (String.length trimmed > 0 && trimmed.[0] = '#')
      then go acc pending (line + 1)
      else begin
        match String.split_on_char '\t' s with
        | [ "cell"; idx; count ] ->
          (match pending with
           | Some (_, _, left) when left > 0 -> fail line "truncated update record"
           | _ -> ());
          let acc =
            match pending with
            | Some (cell, pois, _) -> { cell; pois = List.rev pois } :: acc
            | None -> acc
          in
          let idx =
            match int_of_string_opt idx with
            | Some v -> check_cell ~line v
            | None -> fail line "bad cell index"
          in
          let count =
            match int_of_string_opt count with
            | Some v when v >= 0 -> v
            | _ -> fail line "bad record count"
          in
          go acc (Some (idx, [], count)) (line + 1)
        | _ ->
          (match pending with
           | None -> fail line "POI record outside a cell update"
           | Some (_, _, 0) -> fail line "more POI records than the cell declared"
           | Some (cell, pois, left) ->
             let p = of_line ~line s in
             if List.exists (fun q -> Poi.id q = Poi.id p) pois then
               fail line (Printf.sprintf "duplicate id %d" (Poi.id p));
             go acc (Some (cell, p :: pois, left - 1)) (line + 1))
      end
  in
  go [] None 2

let save_log (path : string) (updates : update list) : unit =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> save_log_channel oc updates)

let load_log ?cells (path : string) : update list =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> load_log_channel ?cells ic)

(* Append one record to a log, writing the header first when the file
   is new or empty — the streaming producer's entry point. *)
let append_log (path : string) (u : update) : unit =
  let fresh =
    not (Sys.file_exists path)
    || (let ic = open_in path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> in_channel_length ic = 0))
  in
  let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      if fresh then begin
        output_string oc log_header;
        output_char oc '\n'
      end;
      append_log_channel oc u)
