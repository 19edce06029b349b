(** Authenticated encryption of one private-grid cell block under its cell
    key (AES-128-CTR + HMAC-SHA256, encrypt-then-MAC).  The MAC turns the
    paper's "data will be meaningless" for unauthorised cells into a
    detectable failure. *)

exception Authentication_failure

(** Cell-key length in bytes (16). *)
val key_len : int

(** Authentication-tag length in bytes (16). *)
val tag_len : int

(** [encrypt ~cell_key pt] is [ciphertext ‖ tag].  Each cell key must
    encrypt exactly one block (fixed nonce). *)
val encrypt : cell_key:string -> string -> string

(** Raises {!Authentication_failure} on a wrong key or modified data. *)
val decrypt : cell_key:string -> string -> string
