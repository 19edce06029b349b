(** HMAC (RFC 2104) over a pluggable hash. *)

type hash = { f : string -> string; block_size : int; size : int }

val sha256 : hash

val mac : hash -> key:string -> string -> string
val sha256_mac : key:string -> string -> string
