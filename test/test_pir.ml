(* Tests for lbq_pir (Gentry-Ramzan): the Appendix B worked example
   digit-by-digit, PIR correctness (Theorem 2), plan structure, tampering
   detection, and plan-level edge shapes.  The Kushilevitz-Ostrovsky QR
   baseline lives in test_qrpir; the cross-backend differential arena in
   test_backends. *)

open Lbq_bignum
open Lbq_numth
open Lbq_crypto
module Gr = Lbq_pir.Gr
module Counters = Lbq_metrics.Counters
module Fixture = Lbq_testutil.Fixture

let z = Alcotest.testable Z.pp Z.equal

let drbg = Drbg.create ~seed:"test-pir" ()
let rand = Drbg.rand drbg

(* ------------------------------------------------------------------ *)
(* Appendix B worked example                                            *)
(* ------------------------------------------------------------------ *)

(* Database {31 mod 7^2, 51 mod 11^2, 68 mod 13^2} -> e = 17475.
   Query: pi = 7^2, q0 = 17, q1 = 19, d = 8765, Q0 = 2*q0*pi + 1 = 1667,
   Q1 = 2*d*q1 + 1 = 333071, N = 555229357, phi = 554894620, g = 3,
   |g| = 138723655, q = |g|/pi = 2831095, ge = g^e = 127319266,
   he = ge^q = 65281917, h = g^q = 474959247, log_h(he) = 31. *)
let test_appendix_b () =
  let e =
    Lbq_oracle.Crt.solve
      [ Z.of_int 31, Z.of_int 49;
        Z.of_int 51, Z.of_int 121;
        Z.of_int 68, Z.of_int 169 ]
  in
  Alcotest.check z "e" (Z.of_int 17475) e;
  let q0 = 17 and q1 = 19 and d = 8765 and pi = 49 in
  let qq0 = Z.of_int ((2 * q0 * pi) + 1) in
  let qq1 = Z.of_int ((2 * d * q1) + 1) in
  Alcotest.check z "Q0" (Z.of_int 1667) qq0;
  Alcotest.check z "Q1" (Z.of_int 333071) qq1;
  Alcotest.(check bool) "Q0 prime" true (Primality.is_prime qq0);
  Alcotest.(check bool) "Q1 prime" true (Primality.is_prime qq1);
  let n = Z.mul qq0 qq1 in
  Alcotest.check z "N" (Z.of_int 555229357) n;
  let phi = Z.mul (Z.pred qq0) (Z.pred qq1) in
  Alcotest.check z "phi" (Z.of_int 554894620) phi;
  Alcotest.check z "pi | phi" Z.zero (Z.erem phi (Z.of_int pi));
  let mctx = Montgomery.create n in
  let g = Z.of_int 3 in
  (* |g| = 138723655 as stated; q = |g| / pi. *)
  let order_g = Z.of_int 138723655 in
  Alcotest.check z "g^|g| = 1" Z.one (Montgomery.powm mctx g order_g);
  let q = Z.div order_g (Z.of_int pi) in
  Alcotest.check z "q" (Z.of_int 2831095) q;
  let ge = Montgomery.powm mctx g e in
  Alcotest.check z "ge" (Z.of_int 127319266) ge;
  let he = Montgomery.powm mctx ge q in
  Alcotest.check z "he" (Z.of_int 65281917) he;
  let h = Montgomery.powm mctx g q in
  Alcotest.check z "h" (Z.of_int 474959247) h;
  (* Brute force (as narrated), then Pohlig-Hellman: both find 31. *)
  Alcotest.(check (option (Alcotest.testable Z.pp Z.equal))) "brute"
    (Some (Z.of_int 31))
    (Lbq_oracle.Dlog.brute n ~base:h ~target:he ~bound:(Z.of_int pi));
  Alcotest.(check (option (Alcotest.testable Z.pp Z.equal))) "pohlig-hellman"
    (Some (Z.of_int 31))
    (Lbq_oracle.Dlog.pohlig_hellman_prime_power mctx ~base:h ~target:he
       ~p:(Z.of_int 7) ~c:2)

(* ------------------------------------------------------------------ *)
(* Plan                                                                 *)
(* ------------------------------------------------------------------ *)

let test_plan_structure () =
  let plan = Gr.make_plan ~count:10 ~block_bits:64 () in
  Alcotest.(check int) "size" 10 (Gr.plan_size plan);
  let s0 = Gr.plan_slot plan 0 in
  Alcotest.check z "first prime is 3" (Z.of_int 3) s0.Gr.p;
  (* Each slot has capacity >= 2^64 and is the least such power. *)
  for i = 0 to 9 do
    let s = Gr.plan_slot plan i in
    Alcotest.(check bool) "capacity" true (Z.numbits s.Gr.pi > 64);
    Alcotest.(check bool) "least power" true
      (Z.numbits (Z.div s.Gr.pi s.Gr.p) <= 64);
    Alcotest.check z "pi = p^c" s.Gr.pi (Z.pow s.Gr.p s.Gr.c)
  done

let test_plan_paper_exponents () =
  (* §VI-B: 1024-bit blocks give 3^647, 5^442, ... *)
  let plan = Gr.make_plan ~count:3 ~block_bits:1024 () in
  let s0 = Gr.plan_slot plan 0 and s1 = Gr.plan_slot plan 1 in
  Alcotest.(check int) "3^647" 647 s0.Gr.c;
  Alcotest.(check int) "5^442" 442 s1.Gr.c

let test_plan_errors () =
  Alcotest.check_raises "count" (Invalid_argument "Gr.make_plan: count <= 0")
    (fun () -> ignore (Gr.make_plan ~count:0 ~block_bits:8 ()));
  let plan = Gr.make_plan ~count:2 ~block_bits:8 () in
  Alcotest.check_raises "slot range"
    (Invalid_argument "Gr.plan_slot: index out of range") (fun () ->
      ignore (Gr.plan_slot plan 2))

(* ------------------------------------------------------------------ *)
(* Gentry-Ramzan end-to-end                                             *)
(* ------------------------------------------------------------------ *)

let test_gr_roundtrip () =
  let count = 8 and block_bits = 48 in
  let plan = Gr.make_plan ~count ~block_bits () in
  let records =
    Array.init count (fun i -> Z.of_int ((i * 1234567) + 89))
  in
  let server = Gr.Server.create plan records in
  for index = 0 to count - 1 do
    let v = Gr.fetch ~server ~index ~q_bits:24 rand in
    Alcotest.check z (Printf.sprintf "record %d" index) records.(index) v
  done

let test_gr_decode_every_slot () =
  (* Every slot of a 64-slot, 640-bit plan (p = 3 .. 313, c = 404 .. 78)
     decodes through the Montgomery Pohlig-Hellman solver: once on a
     fresh instance (tables built on first decode) and once on an
     instance whose tables were built offline by [prepare]. *)
  let count = 64 and block_bits = 640 in
  let plan = Gr.make_plan ~count ~block_bits () in
  let first = Gr.plan_slot plan 0 and last = Gr.plan_slot plan (count - 1) in
  Alcotest.(check (pair int int)) "first slot" (3, 404)
    (Z.to_int first.Gr.p, first.Gr.c);
  Alcotest.(check (pair int int)) "last slot" (313, 78)
    (Z.to_int last.Gr.p, last.Gr.c);
  let records =
    Array.init count (fun i ->
        Z.erem (Z.random_bits ~bits:block_bits rand) (Gr.plan_slot plan i).Gr.pi)
  in
  let server = Gr.Server.create plan records in
  for index = 0 to count - 1 do
    List.iter
      (fun prepared ->
        let st, (n, g) = Gr.Client.query ~plan ~index ~q_bits:16 rand in
        if prepared then Gr.Client.prepare st;
        Alcotest.check z
          (Printf.sprintf "slot %d (%s)" index
             (if prepared then "prepared" else "fresh"))
          records.(index)
          (Gr.Client.decode st (Gr.Server.respond server ~n ~g)))
      [ false; true ]
  done

let test_gr_large_records () =
  (* Records close to capacity. *)
  let plan = Gr.make_plan ~count:4 ~block_bits:64 () in
  let records =
    Array.init 4 (fun i -> Z.pred (Gr.plan_slot plan i).Gr.pi)
  in
  let server = Gr.Server.create plan records in
  let v = Gr.fetch ~server ~index:2 ~q_bits:24 rand in
  Alcotest.check z "max record" records.(2) v

let test_gr_capacity_check () =
  let plan = Gr.make_plan ~count:2 ~block_bits:8 () in
  let too_big = (Gr.plan_slot plan 0).Gr.pi in
  Alcotest.check_raises "overflow"
    (Invalid_argument "Gr.Server.create: record exceeds its prime-power capacity")
    (fun () -> ignore (Gr.Server.create plan [| too_big; Z.one |]));
  Alcotest.check_raises "count mismatch"
    (Invalid_argument "Gr.Server.create: record count does not match plan")
    (fun () -> ignore (Gr.Server.create plan [| Z.one |]))

let test_gr_e_satisfies_congruences () =
  let plan = Gr.make_plan ~count:5 ~block_bits:16 () in
  let records = Array.init 5 (fun i -> Z.of_int (i * 1000)) in
  let server = Gr.Server.create plan records in
  Array.iteri
    (fun i r ->
      Alcotest.check z
        (Printf.sprintf "e mod pi_%d" i)
        r
        (Z.erem (Gr.Server.e server) (Gr.plan_slot plan i).Gr.pi))
    records

let test_gr_tamper_detection () =
  let plan = Gr.make_plan ~count:3 ~block_bits:16 () in
  let server = Gr.Server.create plan [| Z.of_int 7; Z.of_int 8; Z.of_int 9 |] in
  let st, (n, g) = Gr.Client.query ~plan ~index:1 ~q_bits:24 rand in
  let ge = Gr.Server.respond server ~n ~g in
  (* Tamper: multiply the answer by a random element outside the subgroup
     image; decode must fail loudly, not return a wrong record. *)
  let tampered = Z.erem (Z.mul ge (Z.of_int 12345678)) n in
  (match Gr.Client.decode st tampered with
   | exception Invalid_argument _ -> ()
   | v ->
     (* Extremely unlikely alternative: tampering may still land in the
        subgroup; then the decoded value must differ from the record. *)
     if Z.equal v (Z.of_int 8) then
       Alcotest.fail "tampered response decoded to the true record")

let test_gr_metrics (metrics : Counters.t) =
  let plan = Gr.make_plan ~count:4 ~block_bits:32 () in
  let records = Array.init 4 (fun i -> Z.of_int i) in
  let server = Gr.Server.create ~metrics plan records in
  let st, (n, g) = Gr.Client.query ~metrics ~plan ~index:0 ~q_bits:24 rand in
  let ge = Gr.Server.respond server ~n ~g in
  let _ = Gr.Client.decode st ge in
  (* Server: the updated Table II closed form is exact — the cached
     window schedule's cost plus one Montgomery conversion — and stays
     within the analytic |e| + |e|/(w+1) + 2^(w-1) + slack bound. *)
  let ebits = Gr.Server.e_bits server in
  let w = (Gr.Server.schedule server).Wexp.width in
  let measured = (Counters.snapshot metrics).Counters.server_mult in
  Alcotest.(check int) "server mults = predicted closed form"
    (Gr.Server.predicted_mults server) measured;
  Alcotest.(check bool) "server mults >= |e| - w" true (measured >= ebits - w);
  Alcotest.(check bool) "server mults within analytic bound" true
    (measured <= ebits + (ebits / (w + 1)) + (1 lsl (w - 1)) + 16);
  (* Communication: 2 elements up (N, g), 1 element down. *)
  let el = (Z.numbits n + 7) / 8 in
  Alcotest.(check int) "user bytes" (2 * el) (Counters.snapshot metrics).Counters.user_bytes;
  Alcotest.(check int) "server bytes" el (Counters.snapshot metrics).Counters.server_bytes;
  Alcotest.(check bool) "user mults > 2 exponentiations' worth" true
    ((Counters.snapshot metrics).Counters.user_mult > 0)

(* A seeded walk of single-record updates on a database whose [e] is
   wide enough (> 2304 bits) for width-7 windows: every epoch keeps the
   pinned width and the exact closed form, and the final server answers
   byte-identically to a fresh encode of the final records. *)
let test_gr_update_walk_width7 () =
  let count = 8 in
  let plan = Gr.make_plan ~count ~block_bits:320 () in
  let walk = Drbg.rand (Drbg.create ~seed:"test-pir-update-walk" ()) in
  let record i = Z.random_below ~bound:(Gr.plan_slot plan i).Gr.pi walk in
  let records = Array.init count record in
  let metrics = Counters.create () in
  let server = Gr.Server.create ~metrics plan records in
  Alcotest.(check bool) "|e| > 2304 bits" true (Gr.Server.e_bits server > 2304);
  Alcotest.(check int) "width 7" 7 (Gr.Server.schedule server).Wexp.width;
  let queries =
    Array.init count (fun index -> snd (Gr.Client.query ~plan ~index ~q_bits:24 rand))
  in
  for step = 1 to 24 do
    let idx = Z.to_int (Z.random_below ~bound:(Z.of_int count) walk) in
    records.(idx) <- record idx;
    Gr.Server.update_block server ~idx ~block:records.(idx);
    Alcotest.(check int) (Printf.sprintf "step %d: width pinned" step) 7
      (Gr.Server.schedule server).Wexp.width;
    Counters.reset metrics;
    let n, g = queries.(step mod count) in
    ignore (Gr.Server.respond server ~n ~g);
    Alcotest.(check int) (Printf.sprintf "step %d: predicted = measured" step)
      (Gr.Server.predicted_mults server)
      (Counters.snapshot metrics).Counters.server_mult
  done;
  let fresh = Gr.Server.create plan records in
  Array.iteri
    (fun i (n, g) ->
      Alcotest.check z (Printf.sprintf "reply %d = fresh encode" i)
        (Gr.Server.respond fresh ~n ~g) (Gr.Server.respond server ~n ~g))
    queries

(* Plan-level edge shapes (the arena drives the same shapes through the
   backend signature; these pin them at the raw scheme level). *)

let test_gr_edge_single_slot () =
  (* A 1x1 grid is a one-slot plan: the CRT degenerates to e = C_0. *)
  let plan = Gr.make_plan ~count:1 ~block_bits:16 () in
  let records = [| Z.of_int 54321 |] in
  let server = Gr.Server.create plan records in
  Alcotest.check z "e = C_0" records.(0) (Gr.Server.e server);
  Alcotest.check z "fetch" records.(0) (Gr.fetch ~server ~index:0 ~q_bits:20 rand)

let test_gr_edge_empty_record () =
  (* Zero-valued records (the empty-payload analogue) round-trip. *)
  let plan = Gr.make_plan ~count:3 ~block_bits:8 () in
  let server = Gr.Server.create plan [| Z.zero; Z.of_int 200; Z.zero |] in
  Alcotest.check z "zero record" Z.zero (Gr.fetch ~server ~index:2 ~q_bits:20 rand);
  Alcotest.check z "mid record" (Z.of_int 200)
    (Gr.fetch ~server ~index:1 ~q_bits:20 rand)

(* ------------------------------------------------------------------ *)
(* Input validation (hardening)                                         *)
(* ------------------------------------------------------------------ *)

let test_gr_rejects_bad_queries () =
  let plan = Gr.make_plan ~count:4 ~block_bits:32 () in
  let records = Array.init 4 (fun i -> Z.of_int (i + 1)) in
  let server = Gr.Server.create plan records in
  let bound = Gr.Server.max_modulus_bits server ~q_bits:24 in
  (* A legitimate query fits the bound. *)
  let _, (n, g) = Gr.Client.query ~plan ~index:1 ~q_bits:24 rand in
  Alcotest.(check bool) "legit under bound" true (Z.numbits n <= bound);
  let _ = Gr.Server.respond ~max_n_bits:bound server ~n ~g in
  (* An oversized modulus is refused before any work. *)
  let huge = Z.shift_left Z.one (bound + 64) in
  Alcotest.check_raises "oversized modulus"
    (Invalid_argument "Gr.Server.respond: modulus exceeds the deployment bound")
    (fun () ->
      ignore (Gr.Server.respond ~max_n_bits:bound server ~n:(Z.succ huge) ~g));
  (* Degenerate generators are refused. *)
  Alcotest.check_raises "g = 1"
    (Invalid_argument "Gr.Server.respond: generator out of range")
    (fun () -> ignore (Gr.Server.respond server ~n ~g:Z.one));
  Alcotest.check_raises "g >= N"
    (Invalid_argument "Gr.Server.respond: generator out of range")
    (fun () -> ignore (Gr.Server.respond server ~n ~g:n));
  (* An even modulus is refused like every other bad modulus. *)
  Alcotest.check_raises "even N"
    (Invalid_argument "Gr.Server.respond: bad modulus")
    (fun () -> ignore (Gr.Server.respond server ~n:(Z.succ n) ~g))

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)
(* ------------------------------------------------------------------ *)

let prop name count arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let props =
  [ prop "theorem 2: gr fetch returns C_i" 8
      (QCheck.make QCheck.Gen.(triple (int_range 2 6) (int_range 0 5) nat))
      (fun (count, idx, seed) ->
        let index = idx mod count in
        let plan = Gr.make_plan ~count ~block_bits:24 () in
        let records =
          Array.init count (fun i ->
              Z.of_int ((seed + (i * 9176)) mod (1 lsl 24)))
        in
        let server = Gr.Server.create plan records in
        Z.equal records.(index) (Gr.fetch ~server ~index ~q_bits:20 rand));
  ]

let () =
  Alcotest.run "lbq_pir"
    [ ("appendix-b", [ Alcotest.test_case "worked example" `Quick test_appendix_b ]);
      ("plan",
       [ Alcotest.test_case "structure" `Quick test_plan_structure;
         Alcotest.test_case "paper exponents" `Quick test_plan_paper_exponents;
         Alcotest.test_case "errors" `Quick test_plan_errors ]);
      ("gentry-ramzan",
       [ Alcotest.test_case "roundtrip" `Quick test_gr_roundtrip;
         Alcotest.test_case "large records" `Quick test_gr_large_records;
         Alcotest.test_case "decode every slot (64 x 640-bit)" `Quick
           test_gr_decode_every_slot;
         Alcotest.test_case "capacity check" `Quick test_gr_capacity_check;
         Alcotest.test_case "e satisfies congruences" `Quick
           test_gr_e_satisfies_congruences;
         Alcotest.test_case "tamper detection" `Quick test_gr_tamper_detection;
         Fixture.case "metrics" test_gr_metrics;
         Alcotest.test_case "width-7 update walk = fresh encode" `Quick
           test_gr_update_walk_width7 ]);
      ("edges",
       [ Alcotest.test_case "single-slot plan" `Quick test_gr_edge_single_slot;
         Alcotest.test_case "empty record" `Quick test_gr_edge_empty_record ]);
      ("hardening",
       [ Alcotest.test_case "gr rejects bad queries" `Quick
           test_gr_rejects_bad_queries ]);
      ("properties", props) ]
