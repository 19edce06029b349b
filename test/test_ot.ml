(* Tests for lbq_ot: the Appendix A worked example digit-by-digit, the OT
   correctness theorem (Theorem 1), content protection at off-query
   indices, and the Table I operation counts. *)

open Lbq_bignum
open Lbq_group
open Lbq_crypto
module Ot = Lbq_ot.Ot
module Counters = Lbq_metrics.Counters

let z = Alcotest.testable Z.pp Z.equal

let drbg = Drbg.create ~seed:"test-ot" ()
let rand = Drbg.rand drbg
let grp = Schnorr.test_group ()

(* ------------------------------------------------------------------ *)
(* Appendix A: adaptive oblivious transfer worked example               *)
(* ------------------------------------------------------------------ *)

(* p = 1031, g = 14 (generator of the full order-1030 group).  All values
   below are printed in the paper's appendix; we recompute every one. *)
let test_appendix_a () =
  let p = Z.of_int 1031 in
  let ctx = Montgomery.create p in
  let g = Z.of_int 14 in
  let pw b e = Montgomery.powm ctx b (Z.of_int e) in
  let mul = Montgomery.mulmod ctx in
  let inv a = Z.invert a p in
  (* User key: x = 49, y = g^x = 247. *)
  let x = 49 in
  let y = pw g x in
  Alcotest.check z "y" (Z.of_int 247) y;
  (* Query: i = 2, j = 3 (1-based as in the appendix), r1 = 24, r2 = 14. *)
  let a1 = pw g 24 and b1 = mul (inv (pw g 2)) (pw y 24) in
  Alcotest.check z "A1" (Z.of_int 373) a1;
  Alcotest.check z "B1" (Z.of_int 685) b1;
  let a2 = pw g 14 and b2 = mul (inv (pw g 3)) (pw y 14) in
  Alcotest.check z "A2" (Z.of_int 507) a2;
  Alcotest.check z "B2" (Z.of_int 183) b2;
  (* Server: R = [7;33;51;27], C = [21;10;24;37],
     r_alpha = [786;33;783;323], r_beta = [382;897;806;449]. *)
  let r_arr = [| 7; 33; 51; 27 |] and c_arr = [| 21; 10; 24; 37 |] in
  let ra = [| 786; 33; 783; 323 |] and rb = [| 382; 897; 806; 449 |] in
  let respond a b exps r alpha =
    (* alpha is 1-based, matching g^alpha in the appendix. *)
    let u = pw a r.(alpha - 1) in
    let shifted = mul (pw g alpha) b in
    let v = mul (pw g exps.(alpha - 1)) (pw shifted r.(alpha - 1)) in
    u, v
  in
  let expected_rows = [ 184, 679; 46, 62; 661, 845; 271, 597 ] in
  List.iteri
    (fun idx (eu, ev) ->
      let u, v = respond a1 b1 r_arr ra (idx + 1) in
      Alcotest.check z (Printf.sprintf "C'_1,%d U" (idx + 1)) (Z.of_int eu) u;
      Alcotest.check z (Printf.sprintf "C'_1,%d V" (idx + 1)) (Z.of_int ev) v)
    expected_rows;
  let expected_cols = [ 471, 693; 471, 734; 512, 1012; 357, 119 ] in
  List.iteri
    (fun idx (eu, ev) ->
      let u, v = respond a2 b2 c_arr rb (idx + 1) in
      Alcotest.check z (Printf.sprintf "C'_2,%d U" (idx + 1)) (Z.of_int eu) u;
      Alcotest.check z (Printf.sprintf "C'_2,%d V" (idx + 1)) (Z.of_int ev) v)
    expected_cols;
  (* Decode: (U1,V1) = (46,62), (U2,V2) = (512,1012). *)
  let w1 = mul (Z.of_int 62) (inv (pw (Z.of_int 46) x)) in
  let w2 = mul (Z.of_int 1012) (inv (pw (Z.of_int 512) x)) in
  Alcotest.check z "W1 = 425" (Z.of_int 425) w1;
  Alcotest.check z "W2 = 373" (Z.of_int 373) w2;
  Alcotest.check z "W1 = g^R2" (pw g 33) w1;
  Alcotest.check z "W2 = g^C3" (pw g 24) w2

(* ------------------------------------------------------------------ *)
(* Module-level OT                                                      *)
(* ------------------------------------------------------------------ *)

let payload i j = Printf.sprintf "cell(%02d,%02d)-key:%04d" i j ((i * 131) + j)

let make_server ?(rows = 4) ?(cols = 5) ?metrics () =
  let payloads =
    Array.init rows (fun i -> Array.init cols (fun j -> payload i j))
  in
  Ot.Server.init ~group:grp ~rand ?metrics payloads

let test_ot_roundtrip_all_cells () =
  let server = make_server () in
  let masked = Ot.Server.masked_table server in
  for i = 0 to 3 do
    for j = 0 to 4 do
      let st, q = Ot.Client.query ~group:grp ~rand ~i ~j () in
      let resp = Ot.Server.respond server q in
      Alcotest.(check string)
        (Printf.sprintf "(%d,%d)" i j)
        (payload i j)
        (Ot.Client.decode st ~masked resp)
    done
  done

let test_ot_off_index_garbage () =
  let server = make_server () in
  let masked = Ot.Server.masked_table server in
  let st, q = Ot.Client.query ~group:grp ~rand ~i:1 ~j:2 () in
  let resp = Ot.Server.respond server q in
  (* Decoding any other cell with this response must not yield its
     payload: the r_alpha randomisation destroys all but (1,2). *)
  for i = 0 to 3 do
    for j = 0 to 4 do
      if not (i = 1 && j = 2) then begin
        let stolen = Ot.Client.decode_at st ~masked resp ~i ~j in
        if String.equal stolen (payload i j) then
          Alcotest.failf "off-index decode leaked cell (%d,%d)" i j
      end
    done
  done

let test_ot_long_payloads () =
  (* Payloads longer than one SHA-1 digest exercise the MGF expansion. *)
  let payloads =
    Array.init 2 (fun i ->
        Array.init 2 (fun j -> String.init 100 (fun k -> Char.chr ((i + j + k) land 0xff))))
  in
  let server = Ot.Server.init ~group:grp ~rand payloads in
  let masked = Ot.Server.masked_table server in
  let st, q = Ot.Client.query ~group:grp ~rand ~i:1 ~j:0 () in
  let resp = Ot.Server.respond server q in
  Alcotest.(check string) "long payload" payloads.(1).(0)
    (Ot.Client.decode st ~masked resp)

let test_ot_masked_table_hides () =
  let server = make_server () in
  let masked = Ot.Server.masked_table server in
  for i = 0 to 3 do
    for j = 0 to 4 do
      if String.equal masked.(i).(j) (payload i j) then
        Alcotest.failf "masked table leaks plaintext at (%d,%d)" i j
    done
  done

let test_ot_fresh_response_randomness () =
  let server = make_server () in
  let _, q = Ot.Client.query ~group:grp ~rand ~i:0 ~j:0 () in
  let r1 = Ot.Server.respond server q and r2 = Ot.Server.respond server q in
  let u1, _ = r1.Ot.rows.(0) and u2, _ = r2.Ot.rows.(0) in
  Alcotest.(check bool) "responses rerandomised" false (Z.equal u1 u2)

let test_ot_query_randomised () =
  let _, q1 = Ot.Client.query ~group:grp ~rand ~i:2 ~j:3 () in
  let _, q2 = Ot.Client.query ~group:grp ~rand ~i:2 ~j:3 () in
  Alcotest.(check bool) "same index, fresh query" false
    (Z.equal q1.Ot.c1.Elgamal.a q2.Ot.c1.Elgamal.a)

let test_ot_metrics_match_table1 () =
  (* Table I: user 6 exps (4 query + 2 decode), server 3n + 3m per respond;
     communication 4L for the query and 2(m+n)L for the response. *)
  let n = 4 and m = 5 in
  let metrics = Counters.create () in
  let server = make_server ~rows:n ~cols:m ~metrics () in
  Alcotest.(check int) "init exps" (n + m) (Counters.snapshot metrics).Counters.server_exp;
  Counters.reset metrics;
  let st, q = Ot.Client.query ~group:grp ~rand ~metrics ~i:1 ~j:1 () in
  let resp = Ot.Server.respond server q in
  let _ = Ot.Client.decode st ~masked:(Ot.Server.masked_table server) resp in
  Alcotest.(check int) "user exps = 6" 6 (Counters.snapshot metrics).Counters.user_exp;
  Alcotest.(check int) "server exps = 3n+3m" ((3 * n) + (3 * m))
    (Counters.snapshot metrics).Counters.server_exp;
  let l = Ot.element_len grp in
  Alcotest.(check int) "query bytes = 4L" (4 * l) (Counters.snapshot metrics).Counters.user_bytes;
  Alcotest.(check int) "response bytes = 2(m+n)L" (2 * (m + n) * l)
    (Counters.snapshot metrics).Counters.server_bytes

let test_ot_invalid_inputs () =
  Alcotest.check_raises "ragged"
    (Invalid_argument "Ot.Server.init: ragged matrix") (fun () ->
      ignore (Ot.Server.init ~group:grp ~rand [| [| "aa" |]; [| "aa"; "bb" |] |]));
  Alcotest.check_raises "unequal lengths"
    (Invalid_argument "Ot.Server.init: payloads must share one length")
    (fun () ->
      ignore (Ot.Server.init ~group:grp ~rand [| [| "aa"; "bbb" |] |]));
  Alcotest.check_raises "empty"
    (Invalid_argument "Ot.Server.init: empty matrix") (fun () ->
      ignore (Ot.Server.init ~group:grp ~rand [||]));
  Alcotest.check_raises "negative index"
    (Invalid_argument "Ot.Client.query: negative index") (fun () ->
      ignore (Ot.Client.query ~group:grp ~rand ~i:(-1) ~j:0 ()))

(* ------------------------------------------------------------------ *)
(* Stage-1 engine: fast respond vs the seed-revision reference          *)
(* ------------------------------------------------------------------ *)

let check_responses_equal name (r1 : Ot.response) (r2 : Ot.response) =
  let zz = Alcotest.pair z z in
  Alcotest.check (Alcotest.array zz) (name ^ " rows") r1.Ot.rows r2.Ot.rows;
  Alcotest.check (Alcotest.array zz) (name ^ " cols") r1.Ot.cols r2.Ot.cols

let test_ot_respond_matches_reference () =
  (* Fed the same DRBG stream, the comb/Straus engine and the verbatim
     seed path must produce byte-identical responses: the optimisation
     changes the arithmetic, never the algebra or the randomness. *)
  let server = make_server ~rows:5 ~cols:3 () in
  for trial = 0 to 2 do
    let _, q = Ot.Client.query ~group:grp ~rand ~i:(trial mod 5) ~j:trial () in
    let seed = Printf.sprintf "respond-oracle-%d" trial in
    let d1 = Drbg.create ~seed () and d2 = Drbg.create ~seed () in
    let fast = Ot.Server.respond ~rand:(Drbg.rand d1) server q in
    let slow = Ot.Server.respond_reference ~rand:(Drbg.rand d2) server q in
    check_responses_equal (Printf.sprintf "trial %d" trial) fast slow
  done

let test_ot_respond_predicted_equals_measured () =
  let server = make_server ~rows:6 ~cols:4 () in
  let _, q = Ot.Client.query ~group:grp ~rand ~i:2 ~j:1 () in
  let resp, predicted, measured = Ot.Server.respond_counted server q in
  Alcotest.(check int) "predicted = measured" predicted measured;
  Alcotest.(check bool) "some work happened" true (predicted > 0);
  Alcotest.(check int) "rows" 6 (Array.length resp.Ot.rows);
  Alcotest.(check int) "cols" 4 (Array.length resp.Ot.cols)

let test_derive_mask_pinned () =
  (* Regression pin for the single-buffer mask derivation: these bytes
     were produced by the pre-optimisation per-block concatenation path
     and must never change (every masked table depends on them). *)
  let hex s =
    String.concat "" (List.map (Printf.sprintf "%02x")
                        (List.map Char.code (List.init (String.length s)
                                               (String.get s))))
  in
  let m =
    Ot.derive_mask ~element_len:8 ~w1:(Z.of_int 1031) ~w2:(Z.of_int 247)
      ~len:48
  in
  Alcotest.(check string) "pinned mask bytes"
    "d98a5765f6855e2faa2c16038a1a13fe3814d9d22c9c58d77c6bb2984edc3e134fcc726b22fe2cf94d7fdfa329e139f5"
    (hex m)

(* ------------------------------------------------------------------ *)
(* Input validation (hardening)                                         *)
(* ------------------------------------------------------------------ *)

let test_ot_rejects_non_subgroup_query () =
  let server = make_server () in
  let _, q = Ot.Client.query ~group:grp ~rand ~i:0 ~j:0 () in
  (* Replace one element with a non-member (2 is outside the order-q
     subgroup with overwhelming probability, asserted in test_group). *)
  let evil =
    { q with Ot.c1 = { q.Ot.c1 with Lbq_group.Elgamal.a = Z.two } }
  in
  Alcotest.check_raises "non-member rejected"
    (Invalid_argument "Ot.Server.respond: query element outside the subgroup")
    (fun () -> ignore (Ot.Server.respond server evil))

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)
(* ------------------------------------------------------------------ *)

let prop name count arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let props =
  [ prop "theorem 1: decode recovers X_{i,j}" 20
      (QCheck.make
         QCheck.Gen.(quad (int_range 1 6) (int_range 1 6) nat nat))
      (fun (n, m, iseed, jseed) ->
        let i = iseed mod n and j = jseed mod m in
        let payloads =
          Array.init n (fun a -> Array.init m (fun b -> payload a b))
        in
        let server = Ot.Server.init ~group:grp ~rand payloads in
        let st, q = Ot.Client.query ~group:grp ~rand ~i ~j () in
        let resp = Ot.Server.respond server q in
        String.equal (payload i j)
          (Ot.Client.decode st ~masked:(Ot.Server.masked_table server) resp));
    prop "mask derivation is deterministic and length-correct" 50
      (QCheck.make QCheck.Gen.(pair (int_range 1 200) (int_range 1 1000)))
      (fun (len, seed) ->
        let w1 = Z.of_int seed and w2 = Z.of_int (seed * 7) in
        let m1 = Ot.derive_mask ~element_len:32 ~w1 ~w2 ~len in
        let m2 = Ot.derive_mask ~element_len:32 ~w1 ~w2 ~len in
        String.length m1 = len && String.equal m1 m2);
    prop "distinct cells get distinct masks" 50
      (QCheck.make QCheck.Gen.(pair (int_range 2 500) (int_range 2 500)))
      (fun (a, b) ->
        QCheck.assume (a <> b);
        let m1 = Ot.derive_mask ~element_len:8 ~w1:(Z.of_int a) ~w2:(Z.of_int b) ~len:20 in
        let m2 = Ot.derive_mask ~element_len:8 ~w1:(Z.of_int b) ~w2:(Z.of_int a) ~len:20 in
        not (String.equal m1 m2));
  ]

let () =
  Alcotest.run "lbq_ot"
    [ ("appendix-a", [ Alcotest.test_case "worked example" `Quick test_appendix_a ]);
      ("protocol",
       [ Alcotest.test_case "roundtrip all cells" `Quick test_ot_roundtrip_all_cells;
         Alcotest.test_case "off-index garbage" `Quick test_ot_off_index_garbage;
         Alcotest.test_case "long payloads" `Quick test_ot_long_payloads;
         Alcotest.test_case "masked table hides" `Quick test_ot_masked_table_hides;
         Alcotest.test_case "fresh response randomness" `Quick
           test_ot_fresh_response_randomness;
         Alcotest.test_case "query randomised" `Quick test_ot_query_randomised;
         Alcotest.test_case "metrics match table I" `Quick test_ot_metrics_match_table1;
         Alcotest.test_case "invalid inputs" `Quick test_ot_invalid_inputs ]);
      ("stage-1 engine",
       [ Alcotest.test_case "respond = reference under fixed DRBG" `Quick
           test_ot_respond_matches_reference;
         Alcotest.test_case "predicted mults = measured" `Quick
           test_ot_respond_predicted_equals_measured;
         Alcotest.test_case "derive_mask pinned bytes" `Quick
           test_derive_mask_pinned ]);
      ("hardening",
       [ Alcotest.test_case "rejects non-subgroup query" `Quick
           test_ot_rejects_non_subgroup_query ]);
      ("properties", props) ]
