(** The mobile service provider (SP) of the system model (§II-B):
    forwards frames, accumulates virtual transfer time, and records
    exactly what an honest-but-curious SP observes — frame kinds and
    sizes, never locations.  The test suite asserts that this view is
    identical for users in different cells.

    A relay optionally carries a {!Chaos} fault model; lost or mangled
    frames are mirrored into the [Counters.drops] metric. *)

module Counters = Lbq_metrics.Counters

type direction = Uplink | Downlink

type observation = {
  direction : direction;
  kind : Frame.kind;
  bytes : int;
}

type t

val create : ?chaos:Chaos.t -> ?metrics:Counters.t -> link:Link.t -> unit -> t
val link : t -> Link.t
val chaos : t -> Chaos.t option

(** Forward encoded bytes, simulating transfer time; [None] when the
    fault model drops the frame or delivers it outside the lockstep
    receive window.  Corrupted/truncated frames come back mangled — the
    receiver's CRC is what catches them. *)
val forward_opt : t -> direction:direction -> string -> string option

(** Oldest first; includes every transmission the SP forwarded —
    retries and duplicate copies too. *)
val observations : t -> observation list

val network_time_s : t -> float
val reset_clock : t -> unit

(** Add endpoint waiting time (timeouts, backoff) to the virtual clock. *)
val advance_clock : t -> float -> unit

(** Canonical string of the SP's (direction, kind, size) view. *)
val view_fingerprint : t -> string
