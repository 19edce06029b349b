(* One protocol round (Figure 2), and its message-passing driver.

   Every message crosses the client/server boundary as actual wire bytes
   (encoded and re-decoded through [Wire]), so the recorded transcript is
   exactly what a network would carry — the communication columns of
   Tables I/II fall out of it. *)

open Lbq_geo

type direction = User_to_server | Server_to_user

type message = {
  direction : direction;
  label : string;
  bytes : int;
}

type transcript = message list

type round_result = {
  pois : Poi.t list;        (* the real POIs of the user's private cell *)
  credential : Client.credential;
  transcript : transcript;
}

let transcript_bytes ?direction (tr : transcript) : int =
  List.fold_left
    (fun acc m ->
      match direction with
      | Some d when d <> m.direction -> acc
      | _ -> acc + m.bytes)
    0 tr

let pp_message fmt m =
  Format.fprintf fmt "%s %s (%d B)"
    (match m.direction with
     | User_to_server -> "user -> server:"
     | Server_to_user -> "server -> user:")
    m.label m.bytes

let pp_transcript fmt tr =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline pp_message fmt tr

(* The one round sequence; the caller's [ot] and [pir] carry the two
   exchanges.  [reuse] and [pool] forward to {!Client.stage2_query}. *)
let round ?(reuse = false) ?pool (client : Client.t) ~(position : Coord.t)
    ~ot ~pir : Poi.t list * Client.credential =
  let cell = Client.locate client position in
  let st1, ot_query = Client.stage1_query client cell in
  let credential = Client.stage1_decode client st1 (ot ot_query) in
  let st2, pir_query = Client.stage2_query ~reuse ?pool client credential in
  (Client.stage2_decode client st2 (pir credential pir_query), credential)

(* One full round for a user standing at [position].  All four protocol
   messages are serialized, "sent", and parsed on the other side. *)
let run_round ?reuse ?pool (client : Client.t) (server : Server.t)
    ~(position : Coord.t) : round_result =
  let group = (Server.params server).Params.group in
  let tr = ref [] in
  let send direction label bytes =
    tr := { direction; label; bytes = String.length bytes } :: !tr;
    bytes
  in
  let ot q =
    let q_wire =
      send User_to_server "OT query (C1, C2)" (Wire.ot_query_encode group q)
    in
    let resp = Server.ot_respond server (Wire.ot_query_decode group q_wire) in
    Wire.ot_response_decode group
      (send Server_to_user "OT response (C'_1, C'_2)"
         (Wire.ot_response_encode group resp))
  in
  let pir _ q =
    let n, g =
      Wire.pir_query_decode
        (send User_to_server "PIR query (N, g)" (Wire.pir_query_encode q))
    in
    Wire.pir_response_decode
      (send Server_to_user "PIR response (g^e)"
         (Wire.pir_response_encode ~n (Server.pir_respond server ~n ~g)))
  in
  let pois, credential = round ?reuse ?pool client ~position ~ot ~pir in
  { pois; credential; transcript = List.rev !tr }
