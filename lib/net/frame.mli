(** Wire framing for messages through the mobile service provider:
    magic ‖ type ‖ length ‖ payload ‖ CRC-32. *)

exception Bad_frame of string

(** Typed decode failures — every way raw bytes can fail to parse. *)
type error =
  | Truncated
  | Bad_magic
  | Bad_kind of int
  | Bad_length
  | Crc_mismatch

val error_message : error -> string

type kind =
  | Bootstrap_request
  | Bootstrap
  | Ot_query
  | Ot_response
  | Pir_query
  | Pir_response
  | Error_report

val kind_name : kind -> string

type t = { kind : kind; payload : string }

(** Header + trailer bytes added to every payload. *)
val overhead : int

val encode : t -> string

(** Raises {!Bad_frame} on bad magic, type, length, or CRC. *)
val decode : string -> t

(** Total variant of {!decode}: never raises. *)
val decode_result : string -> (t, error) result

(** Big-endian u32 helpers (shared with the padding layer). *)
val u32 : int -> string

val read_u32 : string -> int -> int
