(* Authenticated encryption of one private-grid cell block under its cell
   key k_{i,j} (§III-B: "the server encrypts each record r_i within each
   cell of Q with an associated symmetric key").

   Scheme: SIV-style deterministic AEAD.  Keys are derived from the
   16-byte cell key by SHA-256 domain separation; the tag is
   HMAC-SHA256 of the plaintext truncated to 16 bytes, and its first 12
   bytes are the AES-128-CTR nonce.  A cell key encrypts its cell's
   block again at every POI update, and a stage-2 client may fetch any
   cell's ciphertext at any epoch, so a fixed nonce would hand out
   pt_1 xor pt_2; a nonce derived from the plaintext gives each
   distinct block its own keystream, while equal blocks still encrypt
   equally (issued credentials stay valid across updates).  The MAC is
   what turns "the data will be meaningless" (§III-A) into a detectable
   decryption failure. *)

open Lbq_crypto

exception Authentication_failure

let key_len = 16
let tag_len = 16

let derive_enc_key cell_key = String.sub (Sha256.digest ("enc|" ^ cell_key)) 0 16
let derive_mac_key cell_key = Sha256.digest ("mac|" ^ cell_key)
let siv ~cell_key pt = String.sub (Hmac.sha256_mac ~key:(derive_mac_key cell_key) pt) 0 tag_len
let ctr ~cell_key ~tag s =
  Aes.ctr_encrypt (Aes.expand_key (derive_enc_key cell_key)) ~nonce:(String.sub tag 0 12) s

let encrypt ~cell_key (plaintext : string) : string =
  if String.length cell_key <> key_len then invalid_arg "Cellcrypt.encrypt: key length";
  let tag = siv ~cell_key plaintext in
  ctr ~cell_key ~tag plaintext ^ tag

(* Decrypt under the nonce the tag carries, then recompute the tag over
   the recovered plaintext; nothing is returned unless the two agree
   (constant-time comparison). *)
let decrypt ~cell_key (blob : string) : string =
  if String.length cell_key <> key_len then invalid_arg "Cellcrypt.decrypt: key length";
  if String.length blob < tag_len then raise Authentication_failure;
  let ct_len = String.length blob - tag_len in
  let tag = String.sub blob ct_len tag_len in
  let pt = ctr ~cell_key ~tag (String.sub blob 0 ct_len) in
  if not (Bytes_util.equal_ct tag (siv ~cell_key pt)) then raise Authentication_failure;
  pt
