(* A protocol round over the simulated mobile network: every message is
   framed, forwarded through the SP relay, checked, parsed, and answered.

   Three things happen here beyond Protocol.run_round:

   - end-to-end timing: the round is broken into user CPU, server CPU and
     (virtual) network time, so the benches can put the protocol on
     GPRS/3G/LTE profiles;

   - PIR frame padding: the phi-hiding modulus N is a few bits wider or
     narrower depending on which prime power pi backs the queried cell,
     so raw PIR frame sizes would leak a little about the cell.  Both PIR
     frames are padded to a plan-wide maximum, making every round's
     traffic pattern identical regardless of the cell (the test suite
     asserts this on the SP's view);

   - resilience: when the relay carries a {!Chaos} fault model, each
     request/response exchange is retried under the caller's
     {!Retry.policy}.  A retry resends the *same* encoded request — the
     OT query and the PIR (N, g) are built once per round — so a resumed
     round is idempotent and the SP's traffic view stays uniform (every
     copy of a frame has the same kind and padded size).  The server's
     validated handlers answer hostile queries with an [Error_report]
     frame, which the client surfaces as a non-retryable error. *)

open Lbq_core
module Gr = Lbq_pir.Gr
module Counters = Lbq_metrics.Counters
module Drbg = Lbq_crypto.Drbg

exception Network_error of string

(* The server refused the request (validation): retrying cannot help. *)
exception Rejected of string

type stats = {
  user_cpu_s : float;
  server_cpu_s : float;
  network_s : float;
  bytes_up : int;
  bytes_down : int;
  frames : int;
  retries : int;
}

(* ------------------------------------------------------------------ *)
(* Padding                                                              *)
(* ------------------------------------------------------------------ *)

(* Upper bound on the PIR modulus width for any cell of [plan]:
   |Q0| <= |pi| + q_bits + 2 and |Q1| <= q_bits + 2. *)
let max_n_bytes (plan : Gr.plan) ~q_bits =
  let max_pi_bits = ref 0 in
  for i = 0 to Gr.plan_size plan - 1 do
    max_pi_bits :=
      max !max_pi_bits (Lbq_bignum.Z.numbits (Gr.plan_slot plan i).Gr.pi)
  done;
  let n_bits = !max_pi_bits + q_bits + 2 + (q_bits + 2) in
  ((n_bits + 7) / 8) + 1

let pad_to (target : int) (payload : string) : string =
  if String.length payload > target then
    invalid_arg "Session.pad_to: payload exceeds pad target";
  Frame.u32 (String.length payload)
  ^ payload
  ^ String.make (target - String.length payload) '\x00'

let unpad (padded : string) : (string, string) result =
  if String.length padded < 4 then Error "short padded payload"
  else
    let len = Frame.read_u32 padded 0 in
    if len < 0 || 4 + len > String.length padded then
      Error "bad padding length"
    else Ok (String.sub padded 4 len)

(* ------------------------------------------------------------------ *)
(* Driving a round                                                      *)
(* ------------------------------------------------------------------ *)

let now () = Unix.gettimeofday ()

(* One lockstep exchange through the SP, retried under [policy].

   [serve] is the server side: given the request payload it either
   produces the response frame or a rejection message (answered as an
   [Error_report]).  The request is encoded exactly once — every retry
   puts identical bytes on the air.  A transport fault on either leg
   (lost frame, CRC/framing failure, out-of-window arrival) counts one
   failed attempt: the sender waits out the policy's timeout + backoff
   (advancing the relay's virtual clock) and resends. *)
let exchange (relay : Relay.t) (policy : Retry.policy) ~rand
    ~(retries : int ref) ~(retry_metrics : Counters.t)
    ~(req : Frame.t) ~(resp_kind : Frame.kind)
    ~(serve : string -> (Frame.t, string) result) : string =
  let encoded = Frame.encode req in
  let attempt () =
    match Relay.forward_opt relay ~direction:Relay.Uplink encoded with
    | None -> Error "request lost"
    | Some received ->
      (match Frame.decode_result received with
       | Error e ->
         (* The server discards a garbled frame; the sender times out. *)
         Error ("request garbled: " ^ Frame.error_message e)
       | Ok f ->
         let reply =
           if f.Frame.kind <> req.Frame.kind then
             { Frame.kind = Frame.Error_report;
               payload =
                 "unexpected " ^ Frame.kind_name f.Frame.kind ^ " frame" }
           else
             match serve f.Frame.payload with
             | Ok r -> r
             | Error msg ->
               { Frame.kind = Frame.Error_report; payload = msg }
         in
         (match
            Relay.forward_opt relay ~direction:Relay.Downlink
              (Frame.encode reply)
          with
          | None -> Error "response lost"
          | Some received ->
            (match Frame.decode_result received with
             | Error e -> Error ("response garbled: " ^ Frame.error_message e)
             | Ok f when f.Frame.kind = Frame.Error_report ->
               raise (Rejected f.Frame.payload)
             | Ok f when f.Frame.kind <> resp_kind ->
               Error
                 ("unexpected " ^ Frame.kind_name f.Frame.kind ^ " frame")
             | Ok f -> Ok f.Frame.payload)))
  in
  let on_retry ~failures:_ ~wait_s =
    incr retries;
    Counters.retries retry_metrics 1;
    Relay.advance_clock relay wait_s
  in
  match Retry.run policy ~rand ~on_retry attempt with
  | Ok payload -> payload
  | Error msg -> raise (Network_error msg)

(* Bootstrap: the user downloads the public info through the SP.  The
   download is a plain fetch (no protocol state): fail-fast. *)
let bootstrap (relay : Relay.t) (server : Server.t) : Server.public_info * int =
  let deliver ~direction (frame : Frame.t) : Frame.t =
    match Relay.forward_opt relay ~direction (Frame.encode frame) with
    | None -> raise (Network_error "frame lost")
    | Some received ->
      (match Frame.decode_result received with
       | Ok f -> f
       | Error e -> raise (Network_error ("frame: " ^ Frame.error_message e)))
  in
  let req = { Frame.kind = Frame.Bootstrap_request; payload = "" } in
  let _ = deliver ~direction:Relay.Uplink req in
  let payload = Wire.public_info_encode (Server.public_info server) in
  let resp =
    deliver ~direction:Relay.Downlink { Frame.kind = Frame.Bootstrap; payload }
  in
  if resp.Frame.kind <> Frame.Bootstrap then
    raise
      (Network_error
         (Printf.sprintf "expected bootstrap frame, got %s"
            (Frame.kind_name resp.Frame.kind)));
  (try Wire.public_info_decode resp.Frame.payload
   with Wire.Malformed m -> raise (Network_error ("bootstrap: " ^ m))),
  Frame.overhead + String.length resp.Frame.payload

(* One full round through the relay. *)
let run_round ?(reuse = false) ?(retry = Retry.none)
    ?(jitter_seed = "lbq-retry") (relay : Relay.t) (client : Client.t)
    (server : Server.t) ~(position : Lbq_geo.Coord.t)
  : Protocol.round_result * stats =
  let params = Server.params server in
  let group = params.Params.group in
  let plan = (Server.public_info server).Server.plan in
  let pad_n = max_n_bytes plan ~q_bits:params.Params.q_bits in
  let pad_query = 4 + (8 + (2 * pad_n)) in
  let pad_resp = 4 + pad_n in
  let user_cpu = ref 0. and server_cpu = ref 0. in
  let tick acc f =
    let t0 = now () in
    let v = f () in
    acc := !acc +. (now () -. t0);
    v
  in
  let jitter_drbg = Drbg.create ~domain:"lbq-retry" ~seed:jitter_seed () in
  let rand bound = Drbg.int jitter_drbg bound in
  let retries = ref 0 in
  let retry_metrics = Client.metrics client in
  let exchange = exchange relay retry ~rand ~retries ~retry_metrics in
  Relay.reset_clock relay;
  let start_observations = List.length (Relay.observations relay) in
  (* Stage 1 — the OT query is built and encoded once; retries resend
     the identical frame. *)
  let st1, ot_q =
    tick user_cpu (fun () ->
        let cell = Client.locate client position in
        Client.stage1_query client cell)
  in
  let ot_resp_payload =
    exchange
      ~req:{ Frame.kind = Frame.Ot_query;
             payload = Wire.ot_query_encode group ot_q }
      ~resp_kind:Frame.Ot_response
      ~serve:(fun payload ->
          tick server_cpu (fun () ->
              match Wire.ot_query_decode group payload with
              | exception Wire.Malformed m ->
                Result.map_error Server.rejection_message
                  (Server.reject server (Server.Ot_query_malformed m))
              | q ->
                (match Server.ot_respond_checked server q with
                 | Ok r ->
                   Ok { Frame.kind = Frame.Ot_response;
                        payload = Wire.ot_response_encode group r }
                 | Error r -> Error (Server.rejection_message r))))
  in
  let credential =
    tick user_cpu (fun () ->
        let resp =
          try Wire.ot_response_decode group ot_resp_payload
          with Wire.Malformed m -> raise (Network_error ("ot response: " ^ m))
        in
        Client.stage1_decode client st1 resp)
  in
  (* Stage 2, padded frames.  The (N, g) instance is built once: a retry
     reuses it rather than regenerating, which keeps the round idempotent
     and the SP's traffic view uniform. *)
  let st2, pir_q =
    tick user_cpu (fun () -> Client.stage2_query ~reuse client credential)
  in
  let pir_resp_payload =
    exchange
      ~req:{ Frame.kind = Frame.Pir_query;
             payload = pad_to pad_query (Wire.pir_query_encode pir_q) }
      ~resp_kind:Frame.Pir_response
      ~serve:(fun payload ->
          tick server_cpu (fun () ->
              match unpad payload with
              | Error m ->
                Result.map_error Server.rejection_message
                  (Server.reject server (Server.Pir_query_malformed m))
              | Ok payload ->
                (match Wire.pir_query_decode payload with
                 | exception Wire.Malformed m ->
                   Result.map_error Server.rejection_message
                     (Server.reject server (Server.Pir_query_malformed m))
                 | n, g ->
                   (match Server.pir_respond_checked server ~n ~g with
                    | Ok ge ->
                      Ok { Frame.kind = Frame.Pir_response;
                           payload =
                             pad_to pad_resp
                               (Wire.pir_response_encode ~n ge) }
                    | Error r -> Error (Server.rejection_message r)))))
  in
  let pois =
    tick user_cpu (fun () ->
        let ge =
          match unpad pir_resp_payload with
          | Error m -> raise (Network_error ("pir response: " ^ m))
          | Ok p ->
            (try Wire.pir_response_decode p
             with Wire.Malformed m ->
               raise (Network_error ("pir response: " ^ m)))
        in
        Client.stage2_decode client st2 ge)
  in
  let obs = Relay.observations relay in
  let new_obs =
    List.filteri (fun i _ -> i >= start_observations) obs
  in
  let bytes direction =
    List.fold_left
      (fun acc (o : Relay.observation) ->
        if o.Relay.direction = direction then acc + o.Relay.bytes else acc)
      0 new_obs
  in
  let transcript =
    List.map
      (fun (o : Relay.observation) ->
        { Protocol.direction =
            (match o.Relay.direction with
             | Relay.Uplink -> Protocol.User_to_server
             | Relay.Downlink -> Protocol.Server_to_user);
          label = Frame.kind_name o.Relay.kind;
          bytes = o.Relay.bytes })
      new_obs
  in
  { Protocol.pois; credential; transcript },
  { user_cpu_s = !user_cpu;
    server_cpu_s = !server_cpu;
    network_s = Relay.network_time_s relay;
    bytes_up = bytes Relay.Uplink;
    bytes_down = bytes Relay.Downlink;
    frames = List.length new_obs;
    retries = !retries }
