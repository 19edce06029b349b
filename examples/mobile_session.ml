(* The 2012 mobile experience: one protocol round through the mobile
   service provider on period radio links, with the latency split into
   user CPU / server CPU / air time — and a look at exactly what the SP
   (assumed honest-but-curious, §II-B) gets to observe.

     dune exec examples/mobile_session.exe *)

open Lbq_geo
open Lbq_core
open Lbq_net

let () =
  Format.printf "== mobile-session: the protocol on 2012-era radio links ==@.@.";
  let params = Params.test ~seed:"mobile" () in
  let area =
    Coord.Rect.make ~min:(Coord.make ~x:0. ~y:0.)
      ~max:(Coord.make ~x:3000. ~y:3000.)
  in
  let pois =
    List.init 9 (fun idx ->
        let row = idx / 3 and col = idx mod 3 in
        Poi.make ~id:idx
          ~position:(Coord.make
                       ~x:((float_of_int col *. 1000.) +. 500.)
                       ~y:((float_of_int row *. 1000.) +. 500.))
          ~category:"fuel" ~name:(Printf.sprintf "fuel-%02d" idx))
  in
  let server = Server.create params ~area pois in
  let position = Coord.make ~x:2100. ~y:900. in

  (* Bootstrap once over WiFi (the table download is the big transfer). *)
  let relay = Relay.create ~link:Link.wifi () in
  let info, boot_bytes = Session.bootstrap relay server in
  Format.printf "Bootstrap download: %d B (params + masked table).@.@."
    boot_bytes;

  Format.printf "  %-10s | %-9s | %-9s | %-9s | %-9s | %s@." "link"
    "user cpu" "server cpu" "air time" "total (s)" "bytes up/down";
  Format.printf "  %s@." (String.make 75 '-');
  List.iter
    (fun link ->
      let relay = Relay.create ~link () in
      let client = Client.create ~seed:"mobile-user" info in
      let result, stats = Session.run_round relay client server ~position in
      assert (result.Protocol.pois <> []);
      Format.printf "  %-10s | %9.3f | %9.3f | %9.3f | %9.3f | %d / %d@."
        (Link.name link) stats.Session.user_cpu_s stats.Session.server_cpu_s
        stats.Session.network_s
        (stats.Session.user_cpu_s +. stats.Session.server_cpu_s
         +. stats.Session.network_s)
        (Protocol.transcript_bytes ~direction:Protocol.User_to_server
           result.Protocol.transcript)
        (Protocol.transcript_bytes ~direction:Protocol.Server_to_user
           result.Protocol.transcript))
    Link.profiles;

  (* What did the SP see? *)
  let relay = Relay.create ~link:Link.hsdpa_3g () in
  let client = Client.create ~seed:"mobile-user" info in
  let _ = Session.run_round relay client server ~position in
  Format.printf "@.The SP's complete view of that round:@.";
  List.iter
    (fun (o : Relay.observation) ->
      Format.printf "  %-8s %-14s %d B@."
        (match o.Relay.direction with
         | Relay.Uplink -> "uplink"
         | Relay.Downlink -> "downlink")
        (Frame.kind_name o.Relay.kind) o.Relay.bytes)
    (Relay.observations relay);
  Format.printf
    "@.Frame kinds and sizes only - and the PIR frames are padded to a@.";
  Format.printf
    "plan-wide maximum, so the pattern is identical for every cell.@."
