(** Deterministic, DRBG-seeded fault injection for the simulated mobile
    link: per-frame drop, bit-flip corruption, truncation, duplication,
    reorder-out-of-window, and latency spikes.  Same seed, same frame
    stream → bit-identical fault schedule, so tests can assert exact
    retry counts under loss. *)

type config = {
  drop : float;       (** P(frame never arrives) *)
  corrupt : float;    (** P(one bit flips in flight) *)
  truncate : float;   (** P(only a prefix arrives) *)
  duplicate : float;  (** P(frame arrives twice) *)
  reorder : float;    (** P(frame arrives out of window, discarded) *)
  spike : float;      (** P(latency spike) *)
  spike_s : float;    (** extra one-way seconds when a spike fires *)
}

(** All probabilities zero. *)
val calm : config

(** Drop + corruption only, [p/2] each (total fault rate [p]). *)
val drop_corrupt : p:float -> config

(** All six fault kinds with total per-frame fault rate [p]; a spike
    adds 0.25 s. *)
val mixed : p:float -> unit -> config

type t

(** Raises [Invalid_argument] on probabilities outside [0, 1] or summing
    past 1. *)
val create : ?config:config -> seed:string -> unit -> t

val config : t -> config

(** The fate of one frame. *)
type verdict = {
  delivered : string option;  (** [None]: no usable copy arrives *)
  copies : int;               (** wire transmissions (2 on duplicate) *)
  extra_s : float;            (** added latency (spikes) *)
}

(** Judge the next frame; deterministic in (seed, call sequence). *)
val next : t -> string -> verdict
