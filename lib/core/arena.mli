(** Stage-2 dispatch over the pluggable PIR backend arena: the server's
    encrypted cell database re-served under every registered
    {!Lbq_pir_backend.Backend_intf.S} implementation, selectable per
    round.  Stage 1 (the OT credential fetch) is unchanged; the decoded
    POIs must be identical whichever backend carries the block. *)

open Lbq_geo
module B = Lbq_pir_backend.Backend_intf
module Registry = Lbq_pir_backend.Registry
module Instance = Registry.Instance
module Counters = Lbq_metrics.Counters

type t

(** Encode the server's {!Server.cipher_blocks} under each backend:
    Gentry–Ramzan at the deployment's [q_bits], plus the QR and LWE
    registry defaults.  [metrics] receives every instance's server-side
    counters; [seed] drives backend-internal encoding randomness. *)
val create : ?metrics:Counters.t -> ?seed:string -> Server.t -> t

val server : t -> Server.t

(** Registered backend names, in registration order. *)
val names : t -> string list

(** The packed instance for [backend].  Raises [Invalid_argument] on an
    unknown name. *)
val instance : t -> backend:string -> Instance.t

(** PIR-fetch the credential's cell through [backend], decrypt it under
    the stage-1 cell key, and return the real POIs plus the full wire
    round (frame sizes, predicted vs measured cost, timings).  Raises
    {!Client.Protocol_error} on authentication failure. *)
val fetch :
  ?clock:(unit -> float) -> ?metrics:Counters.t -> rand:(int -> string) ->
  backend:string -> t -> Client.credential -> Poi.t list * Instance.round
