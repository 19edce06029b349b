(* The resilient-transport campaign: deterministic fault schedules
   (Chaos), retry/backoff (Retry), fault-tolerant rounds (Session), and
   the DRBG-seeded property tests for the Frame/Wire codecs under
   truncation and bit flips. *)

open Lbq_geo
open Lbq_core
open Lbq_net
module Z = Lbq_bignum.Z
module Drbg = Lbq_crypto.Drbg
module Counters = Lbq_metrics.Counters

let poit = Alcotest.testable Poi.pp Poi.equal

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Shared fixture                                                       *)
(* ------------------------------------------------------------------ *)

let params = Params.test ~seed:"chaos-test" ()

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
let info = Server.public_info server
let position = Coord.make ~x:700. ~y:2600.

(* ------------------------------------------------------------------ *)
(* Chaos: deterministic schedule                                        *)
(* ------------------------------------------------------------------ *)

(* The fault a verdict shows for [frame]: a lost frame (drop or
   reorder), a bit flip, a truncation, a duplicate, a spike, or none. *)
type fault = Lost | Flipped | Truncated | Duplicated | Spiked | Clean

let fault_of frame (v : Chaos.verdict) =
  match v.Chaos.delivered with
  | None -> Lost
  | Some b when String.length b < String.length frame -> Truncated
  | Some b when not (String.equal b frame) -> Flipped
  | Some _ when v.Chaos.copies = 2 -> Duplicated
  | Some _ when v.Chaos.extra_s > 0. -> Spiked
  | Some _ -> Clean

let count fault faults = List.length (List.filter (( = ) fault) faults)

(* Same seed, same frame stream -> bit-identical verdicts. *)
let test_chaos_reproducible () =
  let mk () = Chaos.create ~config:(Chaos.mixed ~p:0.3 ()) ~seed:"sched" () in
  let c1 = mk () and c2 = mk () in
  let drbg = Drbg.create ~seed:"chaos-frames" () in
  let faults =
    List.init 500 (fun i ->
        let frame = Drbg.bytes drbg (1 + Drbg.int drbg 300) in
        let v1 = Chaos.next c1 frame and v2 = Chaos.next c2 frame in
        Alcotest.(check bool)
          (Printf.sprintf "verdict %d identical" i)
          true
          (v1.Chaos.delivered = v2.Chaos.delivered
           && v1.Chaos.copies = v2.Chaos.copies
           && v1.Chaos.extra_s = v2.Chaos.extra_s);
        fault_of frame v1)
  in
  Alcotest.(check bool) "schedule actually faulty" true
    (count Clean faults < 500)

(* A different seed gives a different schedule. *)
let test_chaos_seed_sensitive () =
  let run seed =
    let c = Chaos.create ~config:(Chaos.mixed ~p:0.3 ()) ~seed () in
    let drbg = Drbg.create ~seed:"chaos-frames" () in
    let faults =
      List.init 200 (fun _ ->
          let frame = Drbg.bytes drbg 64 in
          fault_of frame (Chaos.next c frame))
    in
    List.map (fun f -> count f faults) [ Lost; Flipped; Duplicated; Spiked ]
  in
  Alcotest.(check bool) "seeds differ" true (run "seed-a" <> run "seed-b")

let test_chaos_config_validation () =
  Alcotest.(check bool) "negative rejected" true
    (match Chaos.create ~config:{ Chaos.calm with Chaos.drop = -0.1 }
             ~seed:"x" () with
     | _ -> false
     | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "sum > 1 rejected" true
    (match Chaos.create
             ~config:{ Chaos.calm with Chaos.drop = 0.7; Chaos.corrupt = 0.7 }
             ~seed:"x" () with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Retry policy arithmetic                                              *)
(* ------------------------------------------------------------------ *)

let test_retry_backoff () =
  let policy =
    Retry.make ~max_attempts:8 ~timeout_s:0.5 ~backoff:2. ~max_backoff_s:4.
      ~jitter:0. ()
  in
  let rand _ = 0 in
  (* timeout + min(timeout * 2^(failures-1), cap). *)
  Alcotest.(check (float 1e-9)) "first" 1.0
    (Retry.wait_s policy ~failures:1 ~rand);
  Alcotest.(check (float 1e-9)) "second" 1.5
    (Retry.wait_s policy ~failures:2 ~rand);
  Alcotest.(check (float 1e-9)) "third" 2.5
    (Retry.wait_s policy ~failures:3 ~rand);
  Alcotest.(check (float 1e-9)) "capped" 4.5
    (Retry.wait_s policy ~failures:5 ~rand);
  Alcotest.(check (float 1e-9)) "still capped" 4.5
    (Retry.wait_s policy ~failures:7 ~rand);
  (* Jitter adds at most jitter * capped wait, deterministically. *)
  let jittered = Retry.make ~timeout_s:1. ~jitter:0.5 () in
  let drbg = Drbg.create ~seed:"jitter" () in
  let w = Retry.wait_s jittered ~failures:1 ~rand:(Drbg.int drbg) in
  Alcotest.(check bool) "jitter within bound" true (w >= 2.0 && w <= 2.5);
  Alcotest.(check bool) "bad policy rejected" true
    (match Retry.make ~max_attempts:0 () with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_retry_run () =
  let policy = Retry.make ~max_attempts:4 ~timeout_s:0.1 ~jitter:0. () in
  let rand _ = 0 in
  (* Succeeds on the third attempt: two retries recorded. *)
  let tries = ref 0 and retries = ref 0 in
  let r =
    Retry.run policy ~rand
      ~on_retry:(fun ~failures:_ ~wait_s:_ -> incr retries)
      (fun () -> incr tries; if !tries < 3 then Error "boom" else Ok !tries)
  in
  Alcotest.(check bool) "succeeded" true (r = Ok 3);
  Alcotest.(check int) "two retries" 2 !retries;
  (* Exhaustion returns the last failure; no retry after the last try. *)
  let tries = ref 0 and retries = ref 0 in
  let r =
    Retry.run policy ~rand
      ~on_retry:(fun ~failures:_ ~wait_s:_ -> incr retries)
      (fun () -> incr tries; Error "always")
  in
  (match r with
   | Error m ->
     Alcotest.(check bool) "names the budget" true
       (contains ~needle:"exhausted" m && contains ~needle:"always" m)
   | Ok _ -> Alcotest.fail "should exhaust");
  Alcotest.(check int) "four attempts" 4 !tries;
  Alcotest.(check int) "three retries" 3 !retries

(* ------------------------------------------------------------------ *)
(* Rounds under faults                                                  *)
(* ------------------------------------------------------------------ *)

let fault_free_round ~seed =
  let relay = Relay.create ~link:Link.wifi () in
  let client = Client.create ~seed info in
  Session.run_round relay client server ~position

(* Under p = 0.1 drop+corruption every round completes, returns exactly
   the fault-free result, and the retries equal the frames the fault
   model lost (the relay's [drops]) — checked per round and in
   aggregate over many seeds. *)
let test_round_under_faults () =
  let baseline, _ = fault_free_round ~seed:"round-seed" in
  let total_retries = ref 0 and total_lost = ref 0 in
  for i = 0 to 14 do
    let seed = Printf.sprintf "chaos-round-%d" i in
    let chaos = Chaos.create ~config:(Chaos.drop_corrupt ~p:0.1) ~seed () in
    let metrics = Counters.create () in
    let relay = Relay.create ~chaos ~metrics ~link:Link.wifi () in
    let client = Client.create ~seed:"round-seed" info in
    let result, stats =
      Session.run_round ~retry:Retry.default ~jitter_seed:seed relay client
        server ~position
    in
    let lost = (Counters.snapshot metrics).Counters.drops in
    Alcotest.(check (list poit))
      (Printf.sprintf "round %d result identical to fault-free" i)
      baseline.Protocol.pois result.Protocol.pois;
    Alcotest.(check int)
      (Printf.sprintf "round %d retries = lost frames" i)
      lost stats.Session.retries;
    Alcotest.(check bool)
      (Printf.sprintf "round %d retries bounded" i)
      true
      (stats.Session.retries <= 2 * (Retry.default.Retry.max_attempts - 1));
    total_retries := !total_retries + stats.Session.retries;
    total_lost := !total_lost + lost
  done;
  Alcotest.(check int) "aggregate retries = aggregate lost frames"
    !total_lost !total_retries;
  Alcotest.(check bool) "schedule injected faults" true (!total_lost > 0)

(* The whole faulty experiment replays bit-for-bit from its seeds. *)
let test_faulty_round_reproducible () =
  let run () =
    let chaos =
      Chaos.create ~config:(Chaos.mixed ~p:0.15 ()) ~seed:"replay" ()
    in
    let relay = Relay.create ~chaos ~link:Link.gprs () in
    let client = Client.create ~seed:"replay-user" info in
    let result, stats =
      Session.run_round ~retry:Retry.default ~jitter_seed:"replay" relay
        client server ~position
    in
    let bytes direction =
      Protocol.transcript_bytes ~direction result.Protocol.transcript
    in
    ( Relay.view_fingerprint relay, stats.Session.retries,
      stats.Session.network_s, bytes Protocol.User_to_server,
      bytes Protocol.Server_to_user )
  in
  let f1, r1, n1, u1, d1 = run () in
  let f2, r2, n2, u2, d2 = run () in
  Alcotest.(check string) "SP view identical" f1 f2;
  Alcotest.(check int) "retries identical" r1 r2;
  Alcotest.(check (float 1e-12)) "network time identical" n1 n2;
  Alcotest.(check int) "bytes up identical" u1 u2;
  Alcotest.(check int) "bytes down identical" d1 d2

(* Retries disabled: the first injected fault surfaces as the old
   Network_error, exactly like the pre-resilience transport. *)
let test_no_retry_preserves_failfast () =
  let chaos =
    Chaos.create ~config:{ Chaos.calm with Chaos.drop = 1.0 } ~seed:"kill" ()
  in
  let relay = Relay.create ~chaos ~link:Link.wifi () in
  let client = Client.create ~seed:"ff" info in
  (match Session.run_round relay client server ~position with
   | _ -> Alcotest.fail "dropped frame accepted without retries"
   | exception Session.Network_error _ -> ());
  (* A corrupted frame fails the round the same way. *)
  let chaos =
    Chaos.create ~config:{ Chaos.calm with Chaos.corrupt = 1.0 }
      ~seed:"kill-corrupt" ()
  in
  let relay = Relay.create ~chaos ~link:Link.wifi () in
  let client = Client.create ~seed:"ff2" info in
  (match Session.run_round relay client server ~position with
   | _ -> Alcotest.fail "corrupted frame accepted without retries"
   | exception Session.Network_error _ -> ())

(* A dead link exhausts the budget: max_attempts uplink transmissions,
   max_attempts - 1 recorded retries, then Network_error. *)
let test_budget_exhaustion () =
  let chaos =
    Chaos.create ~config:{ Chaos.calm with Chaos.drop = 1.0 } ~seed:"dead" ()
  in
  let metrics = Counters.create () in
  let relay = Relay.create ~chaos ~metrics ~link:Link.wifi () in
  let client = Client.create ~metrics ~seed:"dead-user" info in
  let policy = Retry.make ~max_attempts:3 ~timeout_s:0.01 ~jitter:0. () in
  (match Session.run_round ~retry:policy relay client server ~position with
   | _ -> Alcotest.fail "round on a dead link completed"
   | exception Session.Network_error m ->
     Alcotest.(check bool) "names the budget" true
       (contains ~needle:"exhausted" m));
  let c = Counters.snapshot metrics in
  Alcotest.(check int) "all attempts dropped" 3 c.Counters.drops;
  Alcotest.(check int) "client retries counter" 2 c.Counters.retries

(* Duplicates and latency spikes are delivered faults: the round
   completes with zero retries; duplicates double frames and bytes,
   spikes stretch the virtual clock. *)
let test_delivered_faults () =
  let base_result, base = fault_free_round ~seed:"dup-seed" in
  let frames r = List.length r.Protocol.transcript in
  let bytes r = Protocol.transcript_bytes r.Protocol.transcript in
  let chaos =
    Chaos.create ~config:{ Chaos.calm with Chaos.duplicate = 1.0 }
      ~seed:"dup" ()
  in
  let relay = Relay.create ~chaos ~link:Link.wifi () in
  let client = Client.create ~seed:"dup-seed" info in
  let result, stats =
    Session.run_round ~retry:Retry.default relay client server ~position
  in
  Alcotest.(check int) "no retries" 0 stats.Session.retries;
  Alcotest.(check int) "every frame doubled" (2 * frames base_result)
    (frames result);
  Alcotest.(check int) "bytes doubled" (2 * bytes base_result)
    (bytes result);
  Alcotest.(check bool) "result still correct" true
    (result.Protocol.pois <> []);
  let spiky =
    Chaos.create
      ~config:{ Chaos.calm with Chaos.spike = 1.0; Chaos.spike_s = 0.05 }
      ~seed:"spike" ()
  in
  let relay = Relay.create ~chaos:spiky ~link:Link.wifi () in
  let client = Client.create ~seed:"dup-seed" info in
  let _, stats =
    Session.run_round ~retry:Retry.default relay client server ~position
  in
  Alcotest.(check int) "spikes cost no retries" 0 stats.Session.retries;
  Alcotest.(check bool) "clock stretched" true
    (stats.Session.network_s
     >= base.Session.network_s
        +. (0.05 *. float_of_int (frames base_result))
        -. 1e-9)

(* Privacy under faults: every (direction, kind, size) triple the SP sees
   in a faulty run already occurs in the fault-free run — retransmissions
   and duplicates change multiplicities, never shapes. *)
let test_sp_view_shape_under_faults () =
  let distinct relay =
    Relay.observations relay
    |> List.map (fun (o : Relay.observation) ->
        ( o.Relay.direction = Relay.Uplink,
          Frame.kind_name o.Relay.kind, o.Relay.bytes ))
    |> List.sort_uniq compare
  in
  let clean_relay = Relay.create ~link:Link.wifi () in
  let client = Client.create ~seed:"shape" info in
  let _ = Session.run_round clean_relay client server ~position in
  let clean = distinct clean_relay in
  let chaos =
    Chaos.create ~config:(Chaos.mixed ~p:0.2 ()) ~seed:"shape-chaos" ()
  in
  let faulty_relay = Relay.create ~chaos ~link:Link.wifi () in
  let client = Client.create ~seed:"shape" info in
  let _ =
    Session.run_round ~retry:Retry.default faulty_relay client server
      ~position
  in
  let faulty = distinct faulty_relay in
  Alcotest.(check bool) "clean round seen" true (List.length clean >= 4);
  List.iter
    (fun triple ->
      Alcotest.(check bool) "triple known from clean run" true
        (List.mem triple clean))
    faulty

(* ------------------------------------------------------------------ *)
(* Property campaign: Frame / Wire codecs (DRBG-seeded, ~1000 cases)    *)
(* ------------------------------------------------------------------ *)

let kinds =
  [| Frame.Bootstrap_request; Frame.Bootstrap; Frame.Ot_query;
     Frame.Ot_response; Frame.Pir_query; Frame.Pir_response;
     Frame.Error_report |]

(* decode . encode = id over ~1000 random payloads of random lengths. *)
let test_frame_roundtrip_prop () =
  let drbg = Drbg.create ~seed:"frame-prop" () in
  for i = 0 to 999 do
    let kind = kinds.(Drbg.int drbg (Array.length kinds)) in
    let payload = Drbg.bytes drbg (Drbg.int drbg 600) in
    let f = { Frame.kind; payload } in
    match Frame.decode_result (Frame.encode f) with
    | Ok f' ->
      if not (f'.Frame.kind = kind && String.equal f'.Frame.payload payload)
      then Alcotest.failf "case %d: decode . encode <> id" i
    | Error e ->
      Alcotest.failf "case %d: own encoding rejected (%s)" i
        (Frame.error_message e)
  done

(* Every truncation and every single-bit flip of an encoding is rejected
   with a typed error — never mis-decoded, never an uncaught exception. *)
let test_frame_mutations_rejected () =
  let drbg = Drbg.create ~seed:"frame-mut" () in
  for i = 0 to 999 do
    let kind = kinds.(Drbg.int drbg (Array.length kinds)) in
    let payload = Drbg.bytes drbg (Drbg.int drbg 300) in
    let good = Frame.encode { Frame.kind; payload } in
    let n = String.length good in
    (* A random strict truncation. *)
    let cut = Drbg.int drbg n in
    (match Frame.decode_result (String.sub good 0 cut) with
     | Error _ -> ()
     | Ok _ -> Alcotest.failf "case %d: truncation to %d accepted" i cut);
    (* A random single-bit flip. *)
    let at = Drbg.int drbg n and bit = Drbg.int drbg 8 in
    let b = Bytes.of_string good in
    Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor (1 lsl bit)));
    (match Frame.decode_result (Bytes.to_string b) with
     | Error _ -> ()
     | Ok _ -> Alcotest.failf "case %d: bit flip at %d.%d accepted" i at bit);
    (* The exception API raises Bad_frame and nothing else. *)
    (match Frame.decode (Bytes.to_string b) with
     | _ -> Alcotest.failf "case %d: decode accepted flipped frame" i
     | exception Frame.Bad_frame _ -> ())
  done;
  (* Exhaustive over every bit of a handful of frames. *)
  for c = 0 to 4 do
    let payload = Drbg.bytes drbg (8 + (c * 13)) in
    let good = Frame.encode { Frame.kind = Frame.Pir_query; payload } in
    for at = 0 to String.length good - 1 do
      for bit = 0 to 7 do
        let b = Bytes.of_string good in
        Bytes.set b at
          (Char.chr (Char.code (Bytes.get b at) lxor (1 lsl bit)));
        match Frame.decode_result (Bytes.to_string b) with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "flip %d.%d accepted" at bit
      done
    done
  done

(* Wire PIR query: decode . encode = id, and truncations / length-field
   lies are rejected with Malformed, never an uncaught exception. *)
let test_wire_pir_query_prop () =
  let drbg = Drbg.create ~seed:"wire-prop" () in
  for i = 0 to 999 do
    let n =
      Z.max Z.one (Z.of_bytes_be (Drbg.bytes drbg (1 + Drbg.int drbg 96)))
    in
    let g =
      Z.max Z.one (Z.of_bytes_be (Drbg.bytes drbg (1 + Drbg.int drbg 96)))
    in
    let enc = Wire.pir_query_encode (n, g) in
    (match Wire.pir_query_decode enc with
     | n', g' ->
       if not (Z.equal n n' && Z.equal g g') then
         Alcotest.failf "case %d: pir query roundtrip mismatch" i
     | exception Wire.Malformed m ->
       Alcotest.failf "case %d: own encoding rejected (%s)" i m);
    let cut = Drbg.int drbg (String.length enc) in
    (match Wire.pir_query_decode (String.sub enc 0 cut) with
     | _ -> Alcotest.failf "case %d: truncated pir query accepted" i
     | exception Wire.Malformed _ -> ())
  done;
  (* Hostile length fields must not drive huge allocations. *)
  let huge = "\x7f\xff\xff\xff" ^ String.make 8 'x' in
  (match Wire.pir_query_decode huge with
   | _ -> Alcotest.fail "absurd length accepted"
   | exception Wire.Malformed _ -> ())

(* OT response wire codec under the same regime (group elements). *)
let test_wire_ot_response_prop () =
  let drbg = Drbg.create ~seed:"wire-ot-prop" () in
  let group = params.Params.group in
  let p = Lbq_group.Schnorr.p group in
  let rand_el () = Z.erem (Z.of_bytes_be (Drbg.bytes drbg 40)) p in
  let pair_eq (a1, b1) (a2, b2) = Z.equal a1 a2 && Z.equal b1 b2 in
  let resp_eq (r : Lbq_ot.Ot.response) (r' : Lbq_ot.Ot.response) =
    Array.length r.Lbq_ot.Ot.rows = Array.length r'.Lbq_ot.Ot.rows
    && Array.length r.Lbq_ot.Ot.cols = Array.length r'.Lbq_ot.Ot.cols
    && Array.for_all2 pair_eq r.Lbq_ot.Ot.rows r'.Lbq_ot.Ot.rows
    && Array.for_all2 pair_eq r.Lbq_ot.Ot.cols r'.Lbq_ot.Ot.cols
  in
  for i = 0 to 199 do
    let pairs k = Array.init k (fun _ -> (rand_el (), rand_el ())) in
    let r =
      { Lbq_ot.Ot.rows = pairs (1 + Drbg.int drbg 6);
        cols = pairs (1 + Drbg.int drbg 6) }
    in
    let enc = Wire.ot_response_encode group r in
    (match Wire.ot_response_decode group enc with
     | r' ->
       if not (resp_eq r r') then
         Alcotest.failf "case %d: ot response roundtrip mismatch" i
     | exception Wire.Malformed m ->
       Alcotest.failf "case %d: own encoding rejected (%s)" i m);
    let cut = Drbg.int drbg (String.length enc) in
    (match Wire.ot_response_decode group (String.sub enc 0 cut) with
     | _ -> Alcotest.failf "case %d: truncated ot response accepted" i
     | exception Wire.Malformed _ -> ())
  done

let () =
  Alcotest.run "lbq_chaos"
    [ ("chaos",
       [ Alcotest.test_case "schedule reproducible" `Quick
           test_chaos_reproducible;
         Alcotest.test_case "seed sensitive" `Quick test_chaos_seed_sensitive;
         Alcotest.test_case "config validation" `Quick
           test_chaos_config_validation ]);
      ("retry",
       [ Alcotest.test_case "backoff arithmetic" `Quick test_retry_backoff;
         Alcotest.test_case "run loop" `Quick test_retry_run ]);
      ("session-faults",
       [ Alcotest.test_case "rounds complete under p=0.1" `Quick
           test_round_under_faults;
         Alcotest.test_case "faulty round reproducible" `Quick
           test_faulty_round_reproducible;
         Alcotest.test_case "no-retry fail-fast preserved" `Quick
           test_no_retry_preserves_failfast;
         Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion;
         Alcotest.test_case "delivered faults (dup, spike)" `Quick
           test_delivered_faults;
         Alcotest.test_case "SP view shape under faults" `Quick
           test_sp_view_shape_under_faults ]);
      ("codec-properties",
       [ Alcotest.test_case "frame roundtrip x1000" `Quick
           test_frame_roundtrip_prop;
         Alcotest.test_case "frame mutations rejected" `Quick
           test_frame_mutations_rejected;
         Alcotest.test_case "wire pir query" `Quick test_wire_pir_query_prop;
         Alcotest.test_case "wire ot response" `Quick
           test_wire_ot_response_prop ]) ]
