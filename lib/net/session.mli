(** A protocol round over the simulated mobile network, with CPU/network
    time breakdown, PIR frame padding (uniform traffic shape across
    cells), and fault-tolerant exchanges: under a {!Retry.policy} each
    request/response pair is retried with capped exponential backoff,
    resending the same encoded request (idempotent resume — the PIR
    (N, g) instance is never regenerated mid-round). *)

open Lbq_core

exception Network_error of string

(** The server refused the request (validation failure, answered with an
    [Error_report] frame): retrying cannot help. *)
exception Rejected of string

type stats = {
  user_cpu_s : float;
  server_cpu_s : float;
  network_s : float;   (* virtual link time, incl. timeout/backoff waits *)
  retries : int;       (* exchange attempts repeated after a fault *)
}

(** One-time public-info download through the SP; returns the info and
    the frame size.  Fail-fast (no retry). *)
val bootstrap : Relay.t -> Server.t -> Server.public_info * int

(** One full round through the SP.  [retry] defaults to {!Retry.none}:
    any transport fault raises {!Network_error}, the pre-resilience
    behaviour.  With a real policy, faults are retried within the budget
    and only exhaustion raises.  [jitter_seed] seeds the backoff jitter
    stream (deterministic replay).  Raises {!Rejected} when the server's
    validation refuses a request.  The result's transcript lists every
    transmission the SP forwarded in the round, retries and duplicate
    copies included. *)
val run_round :
  ?reuse:bool -> ?retry:Retry.policy -> ?jitter_seed:string ->
  Relay.t -> Client.t -> Server.t ->
  position:Lbq_geo.Coord.t -> Protocol.round_result * stats
