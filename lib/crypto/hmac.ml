(* HMAC (RFC 2104) generic over an underlying one-shot hash. *)

type hash = { f : string -> string; block_size : int; size : int }

let sha256 : hash = { f = Sha256.digest; block_size = 64; size = Sha256.digest_size }

let mac (h : hash) ~key (msg : string) : string =
  let key = if String.length key > h.block_size then h.f key else key in
  let key = key ^ String.make (h.block_size - String.length key) '\x00' in
  let ipad = String.map (fun c -> Char.chr (Char.code c lxor 0x36)) key in
  let opad = String.map (fun c -> Char.chr (Char.code c lxor 0x5c)) key in
  h.f (opad ^ h.f (ipad ^ msg))

let sha256_mac ~key msg = mac sha256 ~key msg
