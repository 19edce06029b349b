(* Tests for lbq_geo: coordinates, POI encoding, grids and the P->Q
   association, synthetic workloads, and the reference k-NN search. *)

open Lbq_geo

let coord = Alcotest.testable Coord.pp Coord.equal
let poit = Alcotest.testable Poi.pp Poi.equal

let area =
  Coord.Rect.make ~min:(Coord.make ~x:0. ~y:0.) ~max:(Coord.make ~x:1000. ~y:800.)

(* ------------------------------------------------------------------ *)
(* Coord                                                               *)
(* ------------------------------------------------------------------ *)

let test_distance () =
  let a = Coord.make ~x:0. ~y:0. and b = Coord.make ~x:3. ~y:4. in
  Alcotest.(check (float 1e-9)) "3-4-5" 5. (Coord.distance a b);
  Alcotest.(check (float 1e-9)) "sq" 25. (Coord.distance_sq a b);
  Alcotest.(check (float 1e-9)) "self" 0. (Coord.distance a a)

let test_rect () =
  Alcotest.(check bool) "contains" true
    (Coord.Rect.contains area (Coord.make ~x:500. ~y:400.));
  Alcotest.(check bool) "boundary" true
    (Coord.Rect.contains area (Coord.make ~x:1000. ~y:800.));
  Alcotest.(check bool) "outside" false
    (Coord.Rect.contains area (Coord.make ~x:1000.1 ~y:0.));
  Alcotest.check coord "center" (Coord.make ~x:500. ~y:400.)
    (Coord.Rect.center area);
  Alcotest.check_raises "inverted" (Invalid_argument "Coord.Rect.make: inverted")
    (fun () ->
      ignore (Coord.Rect.make ~min:(Coord.make ~x:1. ~y:0.)
                ~max:(Coord.make ~x:0. ~y:0.)))

let test_square_around () =
  let cr = Coord.Rect.square_around ~bound:area ~side:100.
      (Coord.make ~x:500. ~y:400.) in
  Alcotest.(check (float 1e-9)) "width" 100. (Coord.Rect.width cr);
  Alcotest.(check (float 1e-9)) "height" 100. (Coord.Rect.height cr);
  Alcotest.check coord "centred" (Coord.make ~x:500. ~y:400.) (Coord.Rect.center cr);
  (* Clamped at the corner: the square stays inside the bound. *)
  let cr = Coord.Rect.square_around ~bound:area ~side:100. (Coord.make ~x:0. ~y:0.) in
  Alcotest.(check bool) "clamped inside" true
    (Coord.Rect.contains area (Coord.Rect.min cr)
     && Coord.Rect.contains area (Coord.Rect.max cr))

(* ------------------------------------------------------------------ *)
(* Poi                                                                 *)
(* ------------------------------------------------------------------ *)

let sample_poi =
  Poi.make ~id:42 ~position:(Coord.make ~x:123.5 ~y:678.25) ~category:"cafe"
    ~name:"cafe-0042"

let test_poi_roundtrip () =
  let enc = Poi.encode sample_poi in
  Alcotest.(check int) "size" Poi.encoded_size (String.length enc);
  Alcotest.check poit "roundtrip" sample_poi (Poi.decode enc);
  let d = Poi.dummy ~id:7 in
  Alcotest.check poit "dummy roundtrip" d (Poi.decode (Poi.encode d));
  Alcotest.(check bool) "dummy flag" true (Poi.is_dummy (Poi.decode (Poi.encode d)))

let test_poi_block () =
  let pois = [ sample_poi; Poi.dummy ~id:43; sample_poi ] in
  let block = Poi.encode_block pois in
  Alcotest.(check int) "block size" (3 * Poi.encoded_size) (String.length block);
  Alcotest.(check (list poit)) "block roundtrip" pois (Poi.decode_block block)

let test_poi_validation () =
  Alcotest.check_raises "long name" (Invalid_argument "Poi.make: name too long")
    (fun () ->
      ignore (Poi.make ~id:1 ~position:(Coord.make ~x:0. ~y:0.) ~category:"x"
                ~name:(String.make 28 'n')));
  Alcotest.check_raises "bad length" (Invalid_argument "Poi.decode: bad length")
    (fun () -> ignore (Poi.decode "short"));
  (* Corrupt flags byte must be rejected. *)
  let enc = Bytes.of_string (Poi.encode sample_poi) in
  Bytes.set enc 4 '\xff';
  Alcotest.check_raises "corrupt flags"
    (Invalid_argument "Poi.decode: corrupt flags") (fun () ->
      ignore (Poi.decode (Bytes.to_string enc)))

(* ------------------------------------------------------------------ *)
(* Grid                                                                *)
(* ------------------------------------------------------------------ *)

let test_lattice_cells () =
  let l = Grid.lattice ~area ~rows:8 ~cols:10 in
  Alcotest.(check (float 1e-9)) "cell w" 100. (Grid.cell_width l);
  Alcotest.(check (float 1e-9)) "cell h" 100. (Grid.cell_height l);
  let c = Grid.cell_of_coord l (Coord.make ~x:250. ~y:450.) in
  Alcotest.(check bool) "cell (4,2)" true
    (Grid.cell_equal c { Grid.row = 4; col = 2 });
  (* Far edges belong to the last cells. *)
  let c = Grid.cell_of_coord l (Coord.make ~x:1000. ~y:800.) in
  Alcotest.(check bool) "corner" true
    (Grid.cell_equal c { Grid.row = 7; col = 9 });
  Alcotest.check_raises "outside"
    (Invalid_argument "Grid.cell_of_coord: outside the area") (fun () ->
      ignore (Grid.cell_of_coord l (Coord.make ~x:(-1.) ~y:0.)))

let test_cell_rect_inverse () =
  (* cell_of_coord (cell_center c) = c for every cell. *)
  let l = Grid.lattice ~area ~rows:5 ~cols:7 in
  for row = 0 to 4 do
    for col = 0 to 6 do
      let c = { Grid.row; col } in
      let c' = Grid.cell_of_coord l (Grid.cell_center l c) in
      if not (Grid.cell_equal c c') then
        Alcotest.failf "cell (%d,%d) recovered as (%d,%d)" row col
          c'.Grid.row c'.Grid.col
    done
  done

let some_pois =
  List.init 60 (fun i ->
      Poi.make ~id:i
        ~position:(Coord.make
                     ~x:(float_of_int ((i * 137) mod 1000))
                     ~y:(float_of_int ((i * 73) mod 800)))
        ~category:"atm" ~name:(Printf.sprintf "atm-%03d" i))

let test_partition_uniform () =
  let part = Grid.partition ~area ~rows:4 ~cols:4 some_pois in
  let rmax = Grid.rmax part in
  for idx = 0 to Grid.cell_count part - 1 do
    let cell = Grid.cell_pois part idx in
    Alcotest.(check int) (Printf.sprintf "cell %d size" idx) rmax
      (List.length cell);
    (* Real POIs of the cell really belong there. *)
    List.iter
      (fun p ->
        if not (Poi.is_dummy p) then begin
          let c = Grid.cell_of_coord (Grid.q_lattice part) (Poi.position p) in
          Alcotest.(check int) "poi in right cell" idx (Grid.q_index part c)
        end)
      cell
  done;
  (* Every real POI is present exactly once. *)
  let total_real =
    List.init (Grid.cell_count part) (fun i -> Grid.real_count part i)
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check int) "no pois lost" (List.length some_pois) total_real

let test_partition_rmax_error () =
  Alcotest.check_raises "rmax too small"
    (Invalid_argument "Grid.partition: a cell exceeds rmax") (fun () ->
      ignore (Grid.partition ~rmax:1 ~area ~rows:2 ~cols:2 some_pois))

let test_partition_dummy_ids_distinct () =
  let part = Grid.partition ~area ~rows:3 ~cols:3 some_pois in
  let seen = Hashtbl.create 64 in
  for idx = 0 to Grid.cell_count part - 1 do
    List.iter
      (fun p ->
        let id = Poi.id p in
        if Hashtbl.mem seen id then Alcotest.failf "duplicate id %d" id;
        Hashtbl.replace seen id ())
      (Grid.cell_pois part idx)
  done

let test_association_total () =
  let part = Grid.partition ~area ~rows:5 ~cols:5 some_pois in
  let p = Grid.lattice ~area ~rows:25 ~cols:25 in
  (* Every public cell maps to a valid private cell. *)
  for row = 0 to 24 do
    for col = 0 to 24 do
      let idx = Grid.associate p part { Grid.row; col } in
      if idx < 0 || idx >= Grid.cell_count part then
        Alcotest.failf "cell (%d, %d) maps to %d" row col idx
    done
  done;
  (* A public cell's centre lies inside the private cell it maps to. *)
  let c = { Grid.row = 13; col = 7 } in
  let idx = Grid.associate p part c in
  let qcell =
    Grid.cell_of_coord (Grid.q_lattice part) (Grid.cell_center p c)
  in
  Alcotest.(check int) "consistent" idx (Grid.q_index part qcell)

(* ------------------------------------------------------------------ *)
(* Synth                                                               *)
(* ------------------------------------------------------------------ *)

let test_synth_deterministic () =
  let spec = Synth.city ~count:200 () in
  let a = Synth.generate ~seed:"s" spec and b = Synth.generate ~seed:"s" spec in
  Alcotest.(check (list poit)) "same seed" a b;
  let c = Synth.generate ~seed:"t" spec in
  Alcotest.(check bool) "different seed" false (List.equal Poi.equal a c)

let test_synth_in_area () =
  let spec = Synth.city ~side:5000. ~count:500 () in
  let pois = Synth.generate spec in
  Alcotest.(check int) "count" 500 (List.length pois);
  List.iter
    (fun p ->
      if not (Coord.Rect.contains spec.Synth.area (Poi.position p)) then
        Alcotest.failf "poi %d outside area" (Poi.id p))
    pois

let test_walk () =
  let path = Synth.walk ~area ~steps:50 ~stride:25. () in
  Alcotest.(check int) "length" 50 (List.length path);
  let rec check_strides = function
    | a :: (b :: _ as rest) ->
      if Coord.distance a b > 25. +. 1e-6 then
        Alcotest.fail "stride exceeded";
      check_strides rest
    | _ -> ()
  in
  check_strides path;
  List.iter
    (fun c ->
      if not (Coord.Rect.contains area c) then Alcotest.fail "walked outside")
    path

(* ------------------------------------------------------------------ *)
(* Nn                                                                  *)
(* ------------------------------------------------------------------ *)

let test_nn_basic () =
  let from = Coord.make ~x:0. ~y:0. in
  let mk id x = Poi.make ~id ~position:(Coord.make ~x ~y:0.) ~category:"c" ~name:"n" in
  let pois = [ mk 1 50.; mk 2 10.; mk 3 30.; Poi.dummy ~id:4 ] in
  let nearest = Nn.k_nearest ~k:2 ~from pois in
  Alcotest.(check (list int)) "order" [ 2; 3 ] (List.map Poi.id nearest);
  Alcotest.(check int) "nearest" 2
    (match Nn.nearest ~from pois with Some p -> Poi.id p | None -> -1);
  Alcotest.(check (list int)) "k too large returns all real" [ 2; 3; 1 ]
    (List.map Poi.id (Nn.k_nearest ~k:10 ~from pois))

let test_nn_excludes_dummies () =
  let from = Coord.make ~x:0. ~y:0. in
  (* The dummy sits exactly at the query point but must never appear. *)
  let pois = [ Poi.dummy ~id:1 ] in
  Alcotest.(check int) "no dummies" 0 (List.length (Nn.k_nearest ~k:5 ~from pois))

(* ------------------------------------------------------------------ *)
(* Poi_file                                                            *)
(* ------------------------------------------------------------------ *)

let test_poi_file_roundtrip () =
  let pois =
    [ Poi.make ~id:1 ~position:(Coord.make ~x:12.5 ~y:800.125) ~category:"atm"
        ~name:"atm west";
      Poi.make ~id:2 ~position:(Coord.make ~x:0. ~y:0.) ~category:"cafe"
        ~name:"cafe-0002" ]
  in
  let path = Filename.temp_file "lbq" ".poi" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      Poi_file.save path pois;
      let loaded = Poi_file.load path in
      Alcotest.(check int) "count" 2 (List.length loaded);
      List.iter2
        (fun a b ->
          Alcotest.(check int) "id" (Poi.id a) (Poi.id b);
          Alcotest.(check string) "name" (Poi.name a) (Poi.name b);
          Alcotest.(check (float 0.001)) "x"
            (Coord.x (Poi.position a)) (Coord.x (Poi.position b)))
        pois loaded)

let test_poi_file_skips_dummies_and_comments () =
  let path = Filename.temp_file "lbq" ".poi" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      Poi_file.save path
        [ Poi.dummy ~id:9;
          Poi.make ~id:3 ~position:(Coord.make ~x:1. ~y:2.) ~category:"c"
            ~name:"n" ];
      let loaded = Poi_file.load path in
      Alcotest.(check int) "dummies dropped" 1 (List.length loaded));
  (* Comments and blank lines are fine. *)
  let path2 = Filename.temp_file "lbq" ".poi" in
  Fun.protect ~finally:(fun () -> Sys.remove path2) (fun () ->
      let oc = open_out path2 in
      output_string oc (Poi_file.header ^ "\n\n# a comment\n5\t1.0\t2.0\tatm\tfoo\n");
      close_out oc;
      Alcotest.(check int) "parsed" 1 (List.length (Poi_file.load path2)))

let test_poi_file_errors () =
  let check_fails content expected_line =
    let path = Filename.temp_file "lbq" ".poi" in
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
        let oc = open_out path in
        output_string oc content;
        close_out oc;
        match Poi_file.load path with
        | _ -> Alcotest.failf "accepted %S" content
        | exception Poi_file.Parse_error { line; _ } ->
          Alcotest.(check int) "line" expected_line line)
  in
  check_fails "garbage\n" 1;
  check_fails (Poi_file.header ^ "\nnot-tabs\n") 2;
  check_fails (Poi_file.header ^ "\n1\tx\t2.0\tc\tn\n") 2;
  check_fails (Poi_file.header ^ "\n1\t1.0\t2.0\tc\tn\n1\t3.0\t4.0\tc\tm\n") 3;
  (* Control characters in fields are refused at save time. *)
  Alcotest.check_raises "tab in name"
    (Invalid_argument "Poi_file: name contains control characters")
    (fun () ->
      ignore
        (Poi_file.to_line
           (Poi.make ~id:1 ~position:(Coord.make ~x:0. ~y:0.) ~category:"c"
              ~name:"a\tb")))

(* ------------------------------------------------------------------ *)
(* Poi_file update logs                                                 *)
(* ------------------------------------------------------------------ *)

let with_temp_file f =
  let path = Filename.temp_file "lbq" ".log" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let mk_update cell ids =
  { Poi_file.cell;
    pois =
      List.map
        (fun id ->
          Poi.make ~id ~position:(Coord.make ~x:(float_of_int id) ~y:1.)
            ~category:"cafe" ~name:(Printf.sprintf "u%d" id))
        ids }

let test_log_roundtrip () =
  let updates = [ mk_update 3 [ 10; 11 ]; mk_update 0 []; mk_update 7 [ 12 ] ] in
  with_temp_file (fun path ->
      Poi_file.save_log path updates;
      let loaded = Poi_file.load_log path in
      Alcotest.(check int) "count" 3 (List.length loaded);
      List.iter2
        (fun (a : Poi_file.update) (b : Poi_file.update) ->
          Alcotest.(check int) "cell" a.cell b.cell;
          Alcotest.(check (list int)) "ids"
            (List.map Poi.id a.pois) (List.map Poi.id b.pois))
        updates loaded)

let test_log_empty () =
  with_temp_file (fun path ->
      Poi_file.save_log path [];
      (* Header-only file loads back as no updates. *)
      Alcotest.(check int) "empty" 0 (List.length (Poi_file.load_log path)))

let test_log_append () =
  with_temp_file (fun path ->
      Sys.remove path;
      (* append_log creates the file and writes the header itself. *)
      Poi_file.append_log path (mk_update 2 [ 20 ]);
      Poi_file.append_log path (mk_update 5 [ 21; 22 ]);
      (* Duplicate-cell updates are preserved in order: later wins on
         replay, so both must survive the round-trip. *)
      Poi_file.append_log path (mk_update 2 [ 23 ]);
      let loaded = Poi_file.load_log path in
      Alcotest.(check (list int)) "cells in order" [ 2; 5; 2 ]
        (List.map (fun (u : Poi_file.update) -> u.cell) loaded);
      Alcotest.(check (list int)) "last duplicate" [ 23 ]
        (List.map Poi.id (List.nth loaded 2).Poi_file.pois))

let test_log_dummies_filtered () =
  with_temp_file (fun path ->
      Poi_file.save_log path
        [ { Poi_file.cell = 1;
            pois = [ Poi.dummy ~id:99; (mk_update 0 [ 7 ]).Poi_file.pois |> List.hd ] } ];
      match Poi_file.load_log path with
      | [ u ] ->
        Alcotest.(check (list int)) "dummy dropped" [ 7 ]
          (List.map Poi.id u.Poi_file.pois)
      | _ -> Alcotest.fail "expected one update")

let test_log_errors () =
  let check_fails ?cells content expected_line =
    with_temp_file (fun path ->
        let oc = open_out path in
        output_string oc content;
        close_out oc;
        match Poi_file.load_log ?cells path with
        | _ -> Alcotest.failf "accepted %S" content
        | exception Poi_file.Parse_error { line; _ } ->
          Alcotest.(check int) "line" expected_line line)
  in
  let h = Poi_file.log_header in
  (* Wrong header: the plain-database header is not a log. *)
  check_fails (Poi_file.header ^ "\n") 1;
  (* POI record with no enclosing cell update. *)
  check_fails (h ^ "\n5\t1.0\t2.0\tatm\tfoo\n") 2;
  (* Declared two POIs, gave one. *)
  check_fails (h ^ "\ncell\t0\t2\n5\t1.0\t2.0\tatm\tfoo\n") 4;
  (* More POIs than declared. *)
  check_fails
    (h ^ "\ncell\t0\t1\n5\t1.0\t2.0\tatm\tfoo\n6\t1.0\t2.0\tatm\tbar\n") 4;
  (* Negative cell index. *)
  check_fails (h ^ "\ncell\t-1\t0\n") 2;
  (* Out-of-range cell once a grid size is supplied. *)
  check_fails ~cells:4 (h ^ "\ncell\t4\t0\n") 2;
  (* In range with the same content: accepted. *)
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc (h ^ "\ncell\t3\t0\n");
      close_out oc;
      Alcotest.(check int) "in range ok" 1
        (List.length (Poi_file.load_log ~cells:4 path)))

(* Seeded byte mutations of a saved log — replacements, deletions and
   CR/TAB/LF insertions, one to three per trial — then [load_log ~cells]
   must either refuse the file with [Parse_error] or return updates that
   [save_log] writes and that load back to the same saved text (the
   format keeps coordinates to 3 decimals, so text is the equality).  No
   other exception may escape.  The first case is a CRLF line end on a
   POI line, which the parser used to accept with the CR kept in the
   name, and which [save_log] then refused. *)
let test_log_fuzz () =
  let cells = 16 in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let write path text =
    Out_channel.with_open_bin path (fun oc -> output_string oc text)
  in
  let saved updates =
    with_temp_file (fun path ->
        Poi_file.save_log path updates;
        read path)
  in
  let original =
    saved
      [ mk_update 3 [ 10; 11 ]; mk_update 0 []; mk_update 7 [ 12 ];
        mk_update 15 [ 13; 14; 15 ] ]
  in
  let crlf_name =
    let i = String.index_from original (String.index original 'u') '\n' in
    String.sub original 0 i ^ "\r" ^ String.sub original i (String.length original - i)
  in
  let drbg = Lbq_crypto.Drbg.create ~seed:"poi-log-fuzz" () in
  let pick n = Lbq_crypto.Drbg.int drbg n in
  let alphabet = "\r\t\n\r\t\n0123456789-.e#c " in
  let mutate text =
    let b = Bytes.of_string text in
    let len = Bytes.length b in
    let at = pick len in
    let byte () =
      if pick 2 = 0 then Char.chr (pick 256)
      else alphabet.[pick (String.length alphabet)]
    in
    match pick 3 with
    | 0 ->
      Bytes.set b at (byte ());
      Bytes.to_string b
    | 1 -> Bytes.sub_string b 0 at ^ Bytes.sub_string b (at + 1) (len - at - 1)
    | _ ->
      let c = "\r\t\n".[pick 3] in
      Bytes.sub_string b 0 at ^ String.make 1 c ^ Bytes.sub_string b at (len - at)
  in
  let refused = ref 0 and accepted = ref 0 in
  with_temp_file (fun path ->
      let check trial text =
        write path text;
        match Poi_file.load_log ~cells path with
        | exception Poi_file.Parse_error _ -> incr refused
        | exception e ->
          Alcotest.failf "trial %d: %s escaped load_log on %S" trial
            (Printexc.to_string e) text
        | loaded ->
          incr accepted;
          let resaved =
            try saved loaded
            with e ->
              Alcotest.failf "trial %d: save_log refused what %S loaded to: %s"
                trial text (Printexc.to_string e)
          in
          write path resaved;
          Alcotest.(check string)
            (Printf.sprintf "trial %d: saved, loaded, saved again" trial)
            resaved
            (saved (Poi_file.load_log ~cells path))
      in
      check 0 crlf_name;
      for trial = 1 to 2000 do
        let rounds = 1 + pick 3 in
        let rec go k text = if k = 0 then text else go (k - 1) (mutate text) in
        check trial (go rounds original)
      done);
  Alcotest.(check bool) "some mutants refused" true (!refused > 0);
  Alcotest.(check bool) "some mutants accepted" true (!accepted > 0)

(* ------------------------------------------------------------------ *)
(* Synth churn                                                         *)
(* ------------------------------------------------------------------ *)

let test_churn_stream () =
  let part = Grid.partition ~area ~rows:4 ~cols:4 some_pois in
  let a = Synth.churn ~seed:"c" ~partition:part ~steps:25 () in
  let b = Synth.churn ~seed:"c" ~partition:part ~steps:25 () in
  Alcotest.(check int) "length" 25 (List.length a);
  (* Deterministic in the seed. *)
  List.iter2
    (fun (u : Poi_file.update) (v : Poi_file.update) ->
      Alcotest.(check int) "cell" u.cell v.cell;
      Alcotest.(check (list int)) "ids"
        (List.map Poi.id u.pois) (List.map Poi.id v.pois))
    a b;
  let q = Grid.q_lattice part in
  let rmax = Grid.rmax part in
  List.iter
    (fun (u : Poi_file.update) ->
      Alcotest.(check bool) "cell in range" true
        (u.cell >= 0 && u.cell < Grid.cell_count part);
      Alcotest.(check bool) "count <= rmax" true
        (List.length u.pois <= rmax);
      List.iter
        (fun p ->
          (* Every churned POI lands strictly inside its target cell and
             carries a post-build id, so replay can never collide. *)
          Alcotest.(check bool) "fresh id" true (Poi.id p >= 1_000_000);
          Alcotest.(check int) "in its cell" u.cell
            (Grid.q_index part (Grid.cell_of_coord q (Poi.position p))))
        u.pois;
      (* Replay applies cleanly onto the partition. *)
      Grid.set_cell_pois part u.cell u.pois;
      Alcotest.(check int) "cell repadded" rmax
        (List.length (Grid.cell_pois part u.cell)))
    a

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop name count arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let arb_coord =
  QCheck.make
    QCheck.Gen.(map2 (fun x y -> Coord.make ~x:(x *. 1000.) ~y:(y *. 800.))
                  (float_bound_inclusive 1.) (float_bound_inclusive 1.))
    ~print:(Format.asprintf "%a" Coord.pp)

let props =
  [ prop "triangle inequality" 300 (QCheck.triple arb_coord arb_coord arb_coord)
      (fun (a, b, c) ->
        Coord.distance a c <= Coord.distance a b +. Coord.distance b c +. 1e-9);
    prop "cell_of_coord total over area" 300 arb_coord (fun c ->
        let l = Grid.lattice ~area ~rows:7 ~cols:9 in
        let cell = Grid.cell_of_coord l c in
        cell.Grid.row >= 0 && cell.Grid.row < 7
        && cell.Grid.col >= 0 && cell.Grid.col < 9
        && Coord.Rect.contains (Grid.cell_rect l cell) c);
    prop "poi encode/decode roundtrip" 200
      (QCheck.make
         QCheck.Gen.(quad (int_bound 1000000) (float_bound_inclusive 1000.)
                       (float_bound_inclusive 1000.) (string_size (int_bound 20))))
      (fun (id, x, y, name) ->
        let name = String.map (fun c -> if c = '\x00' then 'x' else c) name in
        let p = Poi.make ~id ~position:(Coord.make ~x ~y) ~category:"cat" ~name in
        Poi.equal p (Poi.decode (Poi.encode p)));
    prop "poi_file line roundtrip" 100
      (QCheck.make
         QCheck.Gen.(quad (int_bound 100000) (float_bound_inclusive 999.)
                       (float_bound_inclusive 799.) (int_bound 7)))
      (fun (id, x, y, cat) ->
        (* Positions written at 1 mm precision: compare at that scale. *)
        let x = Float.round (x *. 1000.) /. 1000. in
        let y = Float.round (y *. 1000.) /. 1000. in
        let category = Printf.sprintf "cat%d" cat in
        let p =
          Poi.make ~id ~position:(Coord.make ~x ~y) ~category ~name:"name"
        in
        let p' = Poi_file.of_line ~line:2 (Poi_file.to_line p) in
        Poi.id p' = id
        && String.equal (Poi.category p') category
        && Float.abs (Coord.x (Poi.position p') -. x) < 0.001
        && Float.abs (Coord.y (Poi.position p') -. y) < 0.001);
    prop "k_nearest matches sort oracle" 100
      (QCheck.make QCheck.Gen.(pair (int_range 1 10) (int_range 0 50)))
      (fun (k, n) ->
        let pois =
          List.init n (fun i ->
              Poi.make ~id:i
                ~position:(Coord.make ~x:(float_of_int ((i * 61) mod 97))
                             ~y:(float_of_int ((i * 31) mod 83)))
                ~category:"c" ~name:"n")
        in
        let from = Coord.make ~x:48. ~y:41. in
        let got = Nn.k_nearest ~k ~from pois in
        let expected =
          List.sort
            (fun a b ->
              compare
                (Coord.distance_sq from (Poi.position a), Poi.id a)
                (Coord.distance_sq from (Poi.position b), Poi.id b))
            pois
          |> List.filteri (fun i _ -> i < k)
        in
        List.equal Poi.equal got expected);
  ]

let () =
  Alcotest.run "lbq_geo"
    [ ("coord",
       [ Alcotest.test_case "distance" `Quick test_distance;
         Alcotest.test_case "rect" `Quick test_rect;
         Alcotest.test_case "square_around" `Quick test_square_around ]);
      ("poi",
       [ Alcotest.test_case "roundtrip" `Quick test_poi_roundtrip;
         Alcotest.test_case "block" `Quick test_poi_block;
         Alcotest.test_case "validation" `Quick test_poi_validation ]);
      ("grid",
       [ Alcotest.test_case "lattice cells" `Quick test_lattice_cells;
         Alcotest.test_case "cell rect inverse" `Quick test_cell_rect_inverse;
         Alcotest.test_case "partition uniform" `Quick test_partition_uniform;
         Alcotest.test_case "rmax error" `Quick test_partition_rmax_error;
         Alcotest.test_case "dummy ids distinct" `Quick
           test_partition_dummy_ids_distinct;
         Alcotest.test_case "association total" `Quick test_association_total ]);
      ("synth",
       [ Alcotest.test_case "deterministic" `Quick test_synth_deterministic;
         Alcotest.test_case "in area" `Quick test_synth_in_area;
         Alcotest.test_case "walk" `Quick test_walk ]);
      ("poi-file",
       [ Alcotest.test_case "roundtrip" `Quick test_poi_file_roundtrip;
         Alcotest.test_case "dummies and comments" `Quick
           test_poi_file_skips_dummies_and_comments;
         Alcotest.test_case "errors" `Quick test_poi_file_errors ]);
      ("poi-log",
       [ Alcotest.test_case "roundtrip" `Quick test_log_roundtrip;
         Alcotest.test_case "empty log" `Quick test_log_empty;
         Alcotest.test_case "append and duplicates" `Quick test_log_append;
         Alcotest.test_case "dummies filtered" `Quick test_log_dummies_filtered;
         Alcotest.test_case "errors" `Quick test_log_errors;
         Alcotest.test_case "mutated logs" `Quick test_log_fuzz ]);
      ("churn",
       [ Alcotest.test_case "stream" `Quick test_churn_stream ]);
      ("nn",
       [ Alcotest.test_case "basic" `Quick test_nn_basic;
         Alcotest.test_case "excludes dummies" `Quick test_nn_excludes_dummies ]);
      ("properties", props) ]
