(** One protocol round (Figure 2), and its message-passing driver: every
    message is serialized through {!Wire} and re-parsed on the receiving
    side; the transcript records the actual bytes on the wire. *)

open Lbq_geo

type direction = User_to_server | Server_to_user

type message = { direction : direction; label : string; bytes : int }

type transcript = message list

type round_result = {
  pois : Poi.t list;
  credential : Client.credential;
  transcript : transcript;
}

(** Total bytes, optionally restricted to one direction. *)
val transcript_bytes : ?direction:direction -> transcript -> int

val pp_message : Format.formatter -> message -> unit
val pp_transcript : Format.formatter -> transcript -> unit

(** The round every driver runs, over the transport's two exchanges:
    [ot] answers the OT query, [pir] the credential's stage-2 (N, g).
    Returns the cell's real POIs and the credential.  [reuse] and
    [pool] as in {!run_round}. *)
val round :
  ?reuse:bool -> ?pool:Client.Keypool.t -> Client.t -> position:Coord.t ->
  ot:(Client.Ot.query -> Client.Ot.response) ->
  pir:(Client.credential -> Lbq_bignum.Z.t * Lbq_bignum.Z.t ->
       Lbq_bignum.Z.t) ->
  Poi.t list * Client.credential

(** One full two-stage round for a user at [position], in process.
    [reuse] lets the client recycle its per-cell PIR instance across
    rounds (§VI's repeated-round efficiency; links same-cell rounds at
    the server); [pool] draws the stage-2 instance from a prewarmed
    {!Client.Keypool} instead of searching for primes inline (fresh
    modulus per round, so rounds stay unlinkable). *)
val run_round :
  ?reuse:bool -> ?pool:Client.Keypool.t -> Client.t -> Server.t ->
  position:Coord.t -> round_result
