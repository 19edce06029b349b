(** Authenticated encryption of one private-grid cell block under its cell
    key: SIV-style deterministic AEAD (the tag is HMAC-SHA256 of the
    plaintext, and its first 12 bytes are the AES-128-CTR nonce).  The
    tag turns the paper's "data will be meaningless" for unauthorised
    cells into a detectable failure. *)

exception Authentication_failure

(** Cell-key length in bytes (16). *)
val key_len : int

(** Authentication-tag length in bytes (16). *)
val tag_len : int

(** [encrypt ~cell_key pt] is [ciphertext ‖ tag].  Deterministic: equal
    plaintexts give equal blobs, and distinct plaintexts under one key
    (a cell's block at two epochs) get distinct keystreams. *)
val encrypt : cell_key:string -> string -> string

(** Raises {!Authentication_failure} on a wrong key or modified data. *)
val decrypt : cell_key:string -> string -> string
