(* Tests for lbq_crypto against official FIPS / RFC / NIST vectors, plus
   property tests on cipher round-trips and DRBG determinism. *)

open Lbq_crypto

let hexs = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* SHA-1 (FIPS 180-1 examples)                                         *)
(* ------------------------------------------------------------------ *)

let test_sha1 () =
  hexs "empty" "da39a3ee5e6b4b0d3255bfef95601890afd80709" (Sha1.hex "");
  hexs "abc" "a9993e364706816aba3e25717850c26c9cd0d89d" (Sha1.hex "abc");
  hexs "two blocks" "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    (Sha1.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  hexs "million a" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (Sha1.hex (String.make 1_000_000 'a'));
  Alcotest.(check int) "size" 20 (String.length (Sha1.digest "x"))

(* ------------------------------------------------------------------ *)
(* SHA-256 (FIPS 180-4 examples)                                       *)
(* ------------------------------------------------------------------ *)

let test_sha256 () =
  hexs "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex "");
  hexs "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex "abc");
  hexs "two blocks"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  hexs "million a" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (String.make 1_000_000 'a'))

(* ------------------------------------------------------------------ *)
(* HMAC (RFC 2202 / RFC 4231 test case 1 and 2)                        *)
(* ------------------------------------------------------------------ *)

let test_hmac () =
  let key20 = String.make 20 '\x0b' in
  hexs "hmac-sha256 rfc4231 tc1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Bytes_util.to_hex (Hmac.sha256_mac ~key:key20 "Hi There"));
  hexs "hmac-sha256 rfc4231 tc2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Bytes_util.to_hex (Hmac.sha256_mac ~key:"Jefe" "what do ya want for nothing?"))

(* ------------------------------------------------------------------ *)
(* ChaCha20 (RFC 8439 §2.3.2 block and §2.4.2 encryption)              *)
(* ------------------------------------------------------------------ *)

let rfc_key =
  Bytes_util.of_hex
    "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"

let test_chacha20_block () =
  let nonce = Bytes_util.of_hex "000000090000004a00000000" in
  let ks = Chacha20.block ~key:rfc_key ~counter:1 ~nonce in
  hexs "keystream"
    ("10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
     ^ "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e")
    (Bytes_util.to_hex ks)

let test_chacha20_encrypt () =
  let nonce = Bytes_util.of_hex "000000000000004a00000000" in
  let plaintext =
    "Ladies and Gentlemen of the class of '99: If I could offer you o\
     nly one tip for the future, sunscreen would be it."
  in
  let ct = Chacha20.encrypt ~key:rfc_key ~nonce ~counter:1 plaintext in
  hexs "ciphertext"
    ("6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
     ^ "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
     ^ "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
     ^ "5af90bbf74a35be6b40b8eedf2785e42874d")
    (Bytes_util.to_hex ct);
  Alcotest.(check string) "roundtrip" plaintext
    (Chacha20.decrypt ~key:rfc_key ~nonce ~counter:1 ct)

(* ------------------------------------------------------------------ *)
(* AES-128 (FIPS 197 App. B & C.1; NIST SP 800-38A F.5.1 CTR)          *)
(* ------------------------------------------------------------------ *)

let test_aes_block () =
  let t = Aes.expand_key (Bytes_util.of_hex "000102030405060708090a0b0c0d0e0f") in
  hexs "fips197 c.1" "69c4e0d86a7b0430d8cdb78070b4c55a"
    (Bytes_util.to_hex
       (Aes.encrypt_block t (Bytes_util.of_hex "00112233445566778899aabbccddeeff")));
  let t2 = Aes.expand_key (Bytes_util.of_hex "2b7e151628aed2a6abf7158809cf4f3c") in
  hexs "fips197 app b" "3925841d02dc09fbdc118597196a0b32"
    (Bytes_util.to_hex
       (Aes.encrypt_block t2 (Bytes_util.of_hex "3243f6a8885a308d313198a2e0370734")))

let test_aes_ctr () =
  let t = Aes.expand_key (Bytes_util.of_hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let nonce = Bytes_util.of_hex "f0f1f2f3f4f5f6f7f8f9fafb" in
  let counter = 0xfcfdfeff in
  let pt =
    Bytes_util.of_hex
      ("6bc1bee22e409f96e93d7e117393172a" ^ "ae2d8a571e03ac9c9eb76fac45af8e51"
       ^ "30c81c46a35ce411e5fbc1191a0a52ef" ^ "f69f2445df4f9b17ad2b417be66c3710")
  in
  let ct = Aes.ctr_encrypt t ~nonce ~counter pt in
  hexs "sp800-38a f.5.1"
    ("874d6191b620e3261bef6864990db6ce" ^ "9806f66b7970fdff8617187bb9fffdff"
     ^ "5ae4df3edbd5d35e5b4f09020db03eab" ^ "1e031dda2fbe03d1792170a0f3009cee")
    (Bytes_util.to_hex ct);
  Alcotest.(check string) "roundtrip" pt (Aes.ctr_decrypt t ~nonce ~counter ct)

(* ------------------------------------------------------------------ *)
(* Bytes_util                                                          *)
(* ------------------------------------------------------------------ *)

let test_bytes_util () =
  hexs "hex roundtrip" "00ff10ab" (Bytes_util.to_hex (Bytes_util.of_hex "00ff10ab"));
  Alcotest.(check string) "xor self is zero" "\x00\x00"
    (Bytes_util.xor "ab" "ab");
  Alcotest.(check bool) "equal_ct yes" true (Bytes_util.equal_ct "abc" "abc");
  Alcotest.(check bool) "equal_ct no" false (Bytes_util.equal_ct "abc" "abd");
  Alcotest.(check bool) "equal_ct len" false (Bytes_util.equal_ct "ab" "abc");
  Alcotest.check_raises "xor length"
    (Invalid_argument "Bytes_util.xor: length mismatch")
    (fun () -> ignore (Bytes_util.xor "a" "ab"))

(* ------------------------------------------------------------------ *)
(* DRBG                                                                *)
(* ------------------------------------------------------------------ *)

let test_drbg_determinism () =
  let a = Drbg.create ~seed:"seed-1" () in
  let b = Drbg.create ~seed:"seed-1" () in
  Alcotest.(check string) "same seed, same stream"
    (Drbg.bytes a 257) (Drbg.bytes b 257);
  let c = Drbg.create ~seed:"seed-2" () in
  Alcotest.(check bool) "different seed, different stream" false
    (String.equal (Drbg.bytes (Drbg.create ~seed:"seed-1" ()) 64) (Drbg.bytes c 64))

let test_drbg_split () =
  let root = Drbg.create ~seed:"root" () in
  let a = Drbg.split root ~label:"a" and b = Drbg.split root ~label:"b" in
  Alcotest.(check bool) "children differ" false
    (String.equal (Drbg.bytes a 64) (Drbg.bytes b 64))

(* Crude statistical sanity: byte frequencies of a 64 KiB stream stay
   within 5 sigma of uniform (catches stuck counters / key reuse). *)
let test_drbg_uniformity () =
  let d = Drbg.create ~seed:"uniformity" () in
  let n = 65536 in
  let s = Drbg.bytes d n in
  let counts = Array.make 256 0 in
  String.iter (fun c -> counts.(Char.code c) <- counts.(Char.code c) + 1) s;
  let expected = float_of_int n /. 256. in
  let sigma = Float.sqrt (expected *. (1. -. (1. /. 256.))) in
  Array.iteri
    (fun v c ->
      let dev = Float.abs (float_of_int c -. expected) /. sigma in
      if dev > 5. then
        Alcotest.failf "byte %02x count %d deviates %.1f sigma" v c dev)
    counts;
  (* Monobit: ones fraction within 5 sigma of 1/2. *)
  let ones = ref 0 in
  String.iter
    (fun c ->
      let rec pop x = if x = 0 then 0 else (x land 1) + pop (x lsr 1) in
      ones := !ones + pop (Char.code c))
    s;
  let bits = float_of_int (8 * n) in
  let dev = Float.abs (float_of_int !ones -. (bits /. 2.)) /. (0.5 *. Float.sqrt bits) in
  Alcotest.(check bool) "monobit" true (dev < 5.)

let test_drbg_chunks () =
  (* Reading in different chunk sizes yields the same stream. *)
  let a = Drbg.create ~seed:"chunks" () in
  let b = Drbg.create ~seed:"chunks" () in
  let c1 = Drbg.bytes a 10 in
  let c2 = Drbg.bytes a 100 in
  let c3 = Drbg.bytes a 3 in
  let s1 = c1 ^ c2 ^ c3 in
  let s2 = Drbg.bytes b 113 in
  Alcotest.(check string) "chunking invariant" s2 s1

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop name count arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let arb_msg = QCheck.string_of_size (QCheck.Gen.int_bound 300)

let props =
  [ prop "chacha20 enc/dec roundtrip" 100
      (QCheck.pair arb_msg QCheck.small_nat)
      (fun (msg, salt) ->
        let d = Drbg.create ~seed:(string_of_int salt) () in
        let key = Drbg.bytes d 32 and nonce = Drbg.bytes d 12 in
        String.equal msg
          (Chacha20.decrypt ~key ~nonce (Chacha20.encrypt ~key ~nonce msg)));
    prop "aes-ctr enc/dec roundtrip" 100
      (QCheck.pair arb_msg QCheck.small_nat)
      (fun (msg, salt) ->
        let d = Drbg.create ~seed:(string_of_int salt) () in
        let t = Aes.expand_key (Drbg.bytes d 16) and nonce = Drbg.bytes d 12 in
        String.equal msg (Aes.ctr_decrypt t ~nonce (Aes.ctr_encrypt t ~nonce msg)));
    prop "different keys give different ciphertexts" 50
      QCheck.small_nat
      (fun salt ->
        let d = Drbg.create ~seed:(string_of_int salt) () in
        let k1 = Drbg.bytes d 32 and k2 = Drbg.bytes d 32 and nonce = Drbg.bytes d 12 in
        let msg = String.make 64 'm' in
        not (String.equal
               (Chacha20.encrypt ~key:k1 ~nonce msg)
               (Chacha20.encrypt ~key:k2 ~nonce msg)));
    prop "drbg int in bound" 200
      (QCheck.pair QCheck.small_nat (QCheck.int_range 1 100000))
      (fun (salt, bound) ->
        let d = Drbg.create ~seed:(string_of_int salt) () in
        let v = Drbg.int d bound in
        0 <= v && v < bound);
    prop "sha1 avalanche (distinct inputs hash distinct)" 100
      (QCheck.pair arb_msg arb_msg)
      (fun (a, b) ->
        QCheck.assume (not (String.equal a b));
        not (String.equal (Sha1.digest a) (Sha1.digest b)));
  ]

let () =
  Alcotest.run "lbq_crypto"
    [ ("vectors",
       [ Alcotest.test_case "sha1" `Quick test_sha1;
         Alcotest.test_case "sha256" `Quick test_sha256;
         Alcotest.test_case "hmac" `Quick test_hmac;
         Alcotest.test_case "chacha20 block" `Quick test_chacha20_block;
         Alcotest.test_case "chacha20 encrypt" `Quick test_chacha20_encrypt;
         Alcotest.test_case "aes block" `Quick test_aes_block;
         Alcotest.test_case "aes ctr" `Quick test_aes_ctr;
         Alcotest.test_case "bytes_util" `Quick test_bytes_util ]);
      ("drbg",
       [ Alcotest.test_case "determinism" `Quick test_drbg_determinism;
         Alcotest.test_case "split" `Quick test_drbg_split;
         Alcotest.test_case "uniformity" `Quick test_drbg_uniformity;
         Alcotest.test_case "chunking" `Quick test_drbg_chunks ]);
      ("properties", props) ]
