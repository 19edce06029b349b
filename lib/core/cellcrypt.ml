(* Authenticated encryption of one private-grid cell block under its cell
   key k_{i,j} (§III-B: "the server encrypts each record r_i within each
   cell of Q with an associated symmetric key").

   Scheme: AES-128-CTR with keys derived from the 16-byte cell key by
   SHA-256 domain separation, then encrypt-then-MAC with HMAC-SHA256
   truncated to 16 bytes.  Each cell key encrypts exactly one block, so a
   fixed zero nonce is safe.  The MAC is what turns "the data will be
   meaningless" (§III-A) into a detectable decryption failure. *)

open Lbq_crypto

exception Authentication_failure

let key_len = 16
let tag_len = 16
let nonce = String.make 12 '\x00'

let derive_enc_key cell_key = String.sub (Sha256.digest ("enc|" ^ cell_key)) 0 16
let derive_mac_key cell_key = Sha256.digest ("mac|" ^ cell_key)

let encrypt ~cell_key (plaintext : string) : string =
  if String.length cell_key <> key_len then invalid_arg "Cellcrypt.encrypt: key length";
  let aes = Aes.expand_key (derive_enc_key cell_key) in
  let ct = Aes.ctr_encrypt aes ~nonce plaintext in
  let tag = String.sub (Hmac.sha256_mac ~key:(derive_mac_key cell_key) ct) 0 tag_len in
  ct ^ tag

let decrypt ~cell_key (blob : string) : string =
  if String.length cell_key <> key_len then invalid_arg "Cellcrypt.decrypt: key length";
  if String.length blob < tag_len then raise Authentication_failure;
  let ct_len = String.length blob - tag_len in
  let ct = String.sub blob 0 ct_len in
  let tag = String.sub blob ct_len tag_len in
  let expected =
    String.sub (Hmac.sha256_mac ~key:(derive_mac_key cell_key) ct) 0 tag_len
  in
  if not (Bytes_util.equal_ct tag expected) then raise Authentication_failure;
  let aes = Aes.expand_key (derive_enc_key cell_key) in
  Aes.ctr_decrypt aes ~nonce ct
