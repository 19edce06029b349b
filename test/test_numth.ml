(* Tests for lbq_numth: sieve/Miller-Rabin agreement (including Carmichael
   numbers), prime generation structure, CRT, Jacobi, and discrete logs. *)

open Lbq_bignum
open Lbq_numth
open Lbq_crypto

let z = Alcotest.testable Z.pp Z.equal
let zopt = Alcotest.option z

let drbg = Drbg.create ~seed:"test-numth" ()
let rand = Drbg.rand drbg

(* ------------------------------------------------------------------ *)
(* Sieve                                                               *)
(* ------------------------------------------------------------------ *)

let test_sieve () =
  Alcotest.(check (list int)) "below 30" [2; 3; 5; 7; 11; 13; 17; 19; 23; 29]
    (Sieve.primes_below 30);
  Alcotest.(check (list int)) "first 5 from 3" [3; 5; 7; 11; 13]
    (Sieve.first_primes ~from:3 5);
  Alcotest.(check int) "count below 10000" 1229
    (List.length (Sieve.primes_below 10000));
  (* The paper's PIR uses the first 225 primes starting at 3. *)
  let ps = Sieve.first_primes ~from:3 225 in
  Alcotest.(check int) "225 primes" 225 (List.length ps);
  Alcotest.(check int) "starts at 3" 3 (List.hd ps);
  Alcotest.(check bool) "all prime" true (List.for_all Sieve.is_small_prime ps)

(* ------------------------------------------------------------------ *)
(* Primality                                                           *)
(* ------------------------------------------------------------------ *)

let test_primality_vs_sieve () =
  (* Exhaustive agreement with the sieve below 20000. *)
  let primes = Sieve.primes_below 20000 in
  let set = Hashtbl.create 4096 in
  List.iter (fun p -> Hashtbl.replace set p ()) primes;
  for n = 0 to 19999 do
    let expected = Hashtbl.mem set n in
    if Primality.is_prime (Z.of_int n) <> expected then
      Alcotest.failf "disagreement at %d" n
  done

let test_carmichael () =
  (* Carmichael numbers fool Fermat but not Miller-Rabin. *)
  let carmichaels = [ 561; 1105; 1729; 2465; 2821; 6601; 8911; 41041; 62745 ] in
  List.iter
    (fun n ->
      Alcotest.(check bool) (string_of_int n) false
        (Primality.is_prime (Z.of_int n)))
    carmichaels;
  (* 561 = 3*11*17 passes Fermat for bases coprime to it. *)
  Alcotest.(check bool) "fermat fooled by 561" true
    (Primality.fermat_witness (Z.of_int 561) (Z.of_int 2))

let test_known_big_primes () =
  (* 2^127 - 1 is a Mersenne prime; 2^128 + 1 is composite (Fermat F7 != ok). *)
  let m127 = Z.pred (Z.pow Z.two 127) in
  Alcotest.(check bool) "2^127-1 prime" true (Primality.is_prime ~rand m127);
  Alcotest.(check bool) "2^128+1 composite" false
    (Primality.is_prime ~rand (Z.succ (Z.pow Z.two 128)));
  (* RSA-style semiprime: product of two 64-bit primes. *)
  let p = Primegen.random_prime ~bits:64 rand in
  let q = Primegen.random_prime ~bits:64 rand in
  Alcotest.(check bool) "semiprime composite" false
    (Primality.is_prime ~rand (Z.mul p q))

let test_primegen () =
  List.iter
    (fun bits ->
      let p = Primegen.random_prime ~bits rand in
      Alcotest.(check int) (Printf.sprintf "width %d" bits) bits (Z.numbits p);
      Alcotest.(check bool) "prime" true (Primality.is_prime ~rand p))
    [ 16; 32; 64; 128; 256 ]

let test_semi_safe () =
  (* Q = 2*q*multiple + 1 with the pi = 3^5 structure of the PIR query. *)
  let pi = Z.pow (Z.of_int 3) 5 in
  let q, qq = Primegen.semi_safe ~q_bits:32 ~multiple:pi rand in
  Alcotest.(check bool) "q prime" true (Primality.is_prime ~rand q);
  Alcotest.(check bool) "Q prime" true (Primality.is_prime ~rand qq);
  Alcotest.check z "structure" qq (Z.succ (Z.shift_left (Z.mul q pi) 1));
  (* phi(Q) = Q - 1 = 2*q*pi, hence pi | phi(Q). *)
  Alcotest.check z "pi divides phi" Z.zero (Z.erem (Z.pred qq) pi)

module Counters = Lbq_metrics.Counters

let test_sieved_search_funnel () =
  (* Every candidate the sieved search examines is either killed by the
     wheel (no bignum arithmetic) or reaches exactly one Miller-Rabin
     test: the counters must account for all of them. *)
  let metrics = Counters.create () in
  let p = Primegen.random_prime ~metrics ~bits:96 rand in
  Alcotest.(check bool) "prime" true (Primality.is_prime ~rand p);
  let s = Counters.snapshot metrics in
  Alcotest.(check bool) "attempts > 0" true (s.Counters.prime_attempts > 0);
  Alcotest.(check int) "attempts = sieved + MR-tested"
    s.Counters.prime_attempts
    (s.Counters.sieve_rejects + s.Counters.mr_calls);
  (* Joint q/Q walk: a survivor costs one MR for q and at most one more
     for Q, so mr_calls lands in [survivors, 2 * survivors]. *)
  let metrics = Counters.create () in
  let q, qq = Primegen.semi_safe ~metrics ~q_bits:40 ~multiple:(Z.of_int 9) rand in
  Alcotest.(check bool) "q prime" true (Primality.is_prime ~rand q);
  Alcotest.(check bool) "Q prime" true (Primality.is_prime ~rand qq);
  let s = Counters.snapshot metrics in
  let survivors = s.Counters.prime_attempts - s.Counters.sieve_rejects in
  Alcotest.(check bool) "survivors > 0" true (survivors > 0);
  Alcotest.(check bool) "mr_calls within joint-walk bounds" true
    (s.Counters.mr_calls >= survivors && s.Counters.mr_calls <= 2 * survivors)

let test_reference_loops_still_work () =
  (* The seed-revision generate-and-test loops stay alive as bench
     baselines; they must still produce valid primes and tick the
     attempt counter. *)
  let metrics = Counters.create () in
  let p = Lbq_oracle.Prime_search.random_prime ~metrics ~bits:64 rand in
  Alcotest.(check int) "width" 64 (Z.numbits p);
  Alcotest.(check bool) "prime" true (Primality.is_prime ~rand p);
  Alcotest.(check bool) "attempts ticked" true
    ((Counters.snapshot metrics).Counters.prime_attempts > 0);
  let q, qq =
    Lbq_oracle.Prime_search.semi_safe ~q_bits:32 ~multiple:(Z.of_int 243) rand
  in
  Alcotest.(check bool) "q prime" true (Primality.is_prime ~rand q);
  Alcotest.(check bool) "Q prime" true (Primality.is_prime ~rand qq);
  Alcotest.check z "structure" qq
    (Z.succ (Z.shift_left (Z.mul q (Z.of_int 243)) 1))

let test_schnorr_modulus () =
  let q = Primegen.random_prime ~bits:32 rand in
  let k, p = Primegen.schnorr_modulus ~p_bits:96 ~q rand in
  Alcotest.(check int) "width" 96 (Z.numbits p);
  Alcotest.(check bool) "prime" true (Primality.is_prime ~rand p);
  Alcotest.check z "structure" p (Z.succ (Z.shift_left (Z.mul k q) 1))

(* ------------------------------------------------------------------ *)
(* Segment sieve and Pocklington certificate                           *)
(* ------------------------------------------------------------------ *)

(* The {2, p}-part of [n]: the largest 2^i * p^j dividing it. *)
let two_p_part p n =
  let pz = Z.of_int p in
  let rec strip d f n =
    let q, r = Z.div_rem n d in
    if Z.is_zero r then strip d (Z.mul f d) q else (f, n)
  in
  let f2, n = strip Z.two Z.one n in
  let fp, _ = strip pz Z.one n in
  Z.mul f2 fp

let test_pocklington_vs_mr () =
  (* Every n = 2*q*p^c + 1 with F = 2*p^c, F^2 > n and n below the
     deterministic Miller–Rabin range: the certificate's verdict, when
     it gives one, is the deterministic verdict.  All q for p^c <= 2500,
     120 random q per p^c above that (up to 2^40). *)
  let proved = ref 0 and undecided_primes = ref 0 and cases = ref 0 in
  let limit = Z.of_string "3317044064679887385961981" in
  let check ~p ~pc q =
    let f = Z.shift_left pc 1 in
    let n = Z.succ (Z.mul f q) in
    if Z.gt (Z.mul f f) n && Z.gt n (Z.of_int 3) && Z.lt n limit then begin
      incr cases;
      let mr = Primality.test n in
      match Primality.pocklington ~p ~f n with
      | Some v ->
        if v <> mr then
          Alcotest.failf "n = %s: certificate and MR disagree" (Z.to_string n);
        if v = Primality.Prime then incr proved
      | None -> if mr = Primality.Prime then incr undecided_primes
    end
  in
  List.iter
    (fun p ->
      let rec powers pc =
        if Z.numbits pc <= 40 then begin
          if Z.leq pc (Z.of_int 2500) then
            for q = 1 to (2 * Z.to_int pc) - 1 do
              check ~p ~pc (Z.of_int q)
            done
          else
            for _ = 1 to 120 do
              check ~p ~pc (Z.succ (Z.random_below ~bound:(Z.shift_left pc 1) rand))
            done;
          powers (Z.mul pc (Z.of_int p))
        end
      in
      powers (Z.of_int p))
    [ 3; 5; 7; 11; 13; 101; 65521 ];
  Alcotest.(check bool) "many cases" true (!cases > 10_000);
  Alcotest.(check bool) "primes proved" true (!proved > 1000);
  (* A prime is left undecided only when every non-residue below 64 is
     a p-th power residue too: rare. *)
  Alcotest.(check bool) "few primes undecided" true
    (!undecided_primes * 100 < !proved)

let test_pocklington_adversarial () =
  (* Squares and products of primes l = 2*t*p^c + 1 (so every prime
     factor is 1 mod 2p^c), whenever the {2, p}-part F of n - 1 has
     F^2 > n: the certificate never proves them prime. *)
  let exercised = ref 0 in
  let check p n =
    let f = two_p_part p (Z.pred n) in
    if Z.gt (Z.mul f f) n then begin
      incr exercised;
      if Primality.is_prime ~rand n then
        Alcotest.failf "%s: MR says prime" (Z.to_string n);
      match Primality.pocklington ~p ~f n with
      | Some Primality.Prime ->
        Alcotest.failf "composite %s certified prime" (Z.to_string n)
      | Some _ | None -> ()
    end
  in
  List.iter
    (fun p ->
      for c = 1 to 12 do
        let pc = Z.pow (Z.of_int p) c in
        let primes =
          List.filter (fun n -> Primality.is_prime ~rand n)
            (List.init 40 (fun t -> Z.succ (Z.mul (Z.of_int (2 * (t + 1))) pc)))
        in
        List.iter
          (fun l1 ->
            check p (Z.mul l1 l1);
            List.iter (fun l2 -> if Z.lt l1 l2 then check p (Z.mul l1 l2)) primes)
          primes
      done)
    [ 3; 5; 7; 13 ];
  Alcotest.(check bool) "adversarial cases exercised" true (!exercised > 50)

let test_segment_marks () =
  (* Sieve.segment on the joint walk's two forms (q and
     Q = 1 + 2*multiple*q) against a direct Z.rem by every odd prime
     below each form's cap. *)
  let odd_primes = List.tl (Sieve.primes_below Sieve.limit) in
  let cap_below least =
    if Z.numbits least > 17 then Sieve.limit else Z.to_int least
  in
  List.iter
    (fun (q_bits, multiple, len) ->
      let q_least = Z.shift_left Z.one (q_bits - 1) in
      let big_q q = Z.succ (Z.shift_left (Z.mul q multiple) 1) in
      let forms =
        [ { Sieve.cap = cap_below q_least; add = 0; mul = Nat.one };
          { Sieve.cap = cap_below (big_q q_least); add = 1;
            mul = Z.to_nat (Z.shift_left multiple 1) } ]
      in
      let start =
        Z.add q_least (Z.random_below ~bound:(Z.shift_left Z.one (q_bits - 2)) rand)
      in
      let start = if Z.is_even start then Z.succ start else start in
      let marks = Bytes.make (len + 7) '\042' in
      Sieve.segment marks ~start ~step:2 ~len forms;
      for j = 0 to len - 1 do
        let q = Z.add start (Z.of_int (2 * j)) in
        let hit cap v =
          List.exists
            (fun r -> r < cap && Z.is_zero (Z.rem v (Z.of_int r)))
            odd_primes
        in
        let expected =
          hit (cap_below q_least) q || hit (cap_below (big_q q_least)) (big_q q)
        in
        if expected <> (Bytes.get marks j = '\001') then
          Alcotest.failf "q_bits %d, j = %d: mark %C, expected %b" q_bits j
            (Bytes.get marks j) expected
      done;
      Alcotest.(check char) "bytes past len untouched" '\042' (Bytes.get marks len))
    [ (16, Z.of_int 9, 64); (20, Z.pow (Z.of_int 3) 20, 64);
      (32, Z.pow (Z.of_int 5) 14, 64); (48, Z.one, 64);
      (64, Z.pow (Z.of_int 7) 30, 64);
      (64, (Lbq_pir.Gr.plan_slot (Lbq_pir.Gr.make_plan ~count:64 ~block_bits:640 ()) 63).Lbq_pir.Gr.pi, 12) ]

let test_walks_match_wheel_oracle () =
  (* Same DRBG seed, same first hit as the previous revision's wheel
     walks (test/oracle): the segment sieve and the certificate only
     drop composites.  PIR-shaped multiples take the certificate path,
     and then the returned Q carries a Pocklington proof. *)
  let seeded i = Drbg.rand (Drbg.create ~seed:(Printf.sprintf "walk-%d" i) ()) in
  let pair = Alcotest.(pair z z) in
  let plan = Lbq_pir.Gr.make_plan ~count:8 ~block_bits:160 () in
  List.iteri
    (fun i (q_bits, multiple) ->
      let metrics = Counters.create () in
      let got = Primegen.semi_safe ~metrics ~q_bits ~multiple (seeded i) in
      let want = Lbq_oracle.Prime_search.Wheel.semi_safe ~q_bits ~multiple (seeded i) in
      Alcotest.check pair (Printf.sprintf "semi_safe %d" i) want got;
      let s = Counters.snapshot metrics in
      let survivors = s.Counters.prime_attempts - s.Counters.sieve_rejects in
      Alcotest.(check bool) "mr_calls within joint-walk bounds" true
        (s.Counters.mr_calls >= survivors && s.Counters.mr_calls <= 2 * survivors);
      let f = Z.shift_left multiple 1 in
      if Z.gt (Z.mul f f) (snd got) && not (Z.equal multiple Z.one) then begin
        let p = Option.get (Sieve.least_odd_factor multiple) in
        Alcotest.(check bool) "Q0 proven prime" true
          (Primality.pocklington ~p ~f (snd got) = Some Primality.Prime)
      end)
    (List.concat_map
       (fun q_bits ->
         [ (q_bits, (Lbq_pir.Gr.plan_slot plan (q_bits mod 8)).Lbq_pir.Gr.pi);
           (q_bits, (Lbq_pir.Gr.plan_slot plan 7).Lbq_pir.Gr.pi);
           (q_bits, Z.one); (q_bits, Z.of_int 243) ])
       [ 32; 40; 48; 64 ]);
  List.iteri
    (fun i bits ->
      Alcotest.check z (Printf.sprintf "random_prime %d" bits)
        (Lbq_oracle.Prime_search.Wheel.random_prime ~bits (seeded (100 + i)))
        (Primegen.random_prime ~bits (seeded (100 + i))))
    [ 32; 48; 64; 128; 256; 512 ];
  List.iteri
    (fun i (p_bits, q_bits) ->
      let q = Primegen.random_prime ~bits:q_bits rand in
      Alcotest.check pair (Printf.sprintf "schnorr_modulus %d" p_bits)
        (Lbq_oracle.Prime_search.Wheel.schnorr_modulus ~p_bits ~q (seeded (200 + i)))
        (Primegen.schnorr_modulus ~p_bits ~q (seeded (200 + i))))
    [ (96, 32); (160, 64); (256, 160); (512, 160) ]

(* ------------------------------------------------------------------ *)
(* CRT                                                                 *)
(* ------------------------------------------------------------------ *)

let test_crt_paper_example () =
  (* Appendix B: e = 31 (mod 7^2), 51 (mod 11^2), 68 (mod 13^2) -> 17475. *)
  let congruences =
    [ Z.of_int 31, Z.of_int 49; Z.of_int 51, Z.of_int 121; Z.of_int 68, Z.of_int 169 ]
  in
  Alcotest.check z "e = 17475" (Z.of_int 17475) (Crt.solve congruences);
  Alcotest.(check bool) "check" true (Crt.check (Z.of_int 17475) congruences)

let test_crt_tree_update () =
  (* The retained product tree: build once, then leaf fix-ups must track
     a fresh one-shot solve exactly (the streaming-update invariant the
     PIR server leans on). *)
  let moduli = List.map Z.of_int [ 49; 121; 169; 289; 361; 23; 29 ] in
  let congruences = List.mapi (fun i m -> (Z.of_int (i * 17), m)) moduli in
  let tree = Crt.Tree.build congruences in
  Alcotest.(check int) "size" 7 (Crt.Tree.size tree);
  Alcotest.check z "build = solve" (Crt.solve congruences)
    (Crt.Tree.solve tree);
  Alcotest.check z "modulus = product"
    (List.fold_left Z.mul Z.one moduli)
    (Crt.Tree.modulus tree);
  List.iteri
    (fun i m ->
      Alcotest.check z (Printf.sprintf "leaf modulus %d" i) m
        (Crt.Tree.leaf_modulus tree i))
    moduli;
  let current = Array.of_list congruences in
  List.iter
    (fun (i, r) ->
      let _, m = current.(i) in
      current.(i) <- (Z.erem (Z.of_int r) m, m);
      Crt.Tree.update_leaf tree i (Z.of_int r);
      Alcotest.check z
        (Printf.sprintf "update leaf %d <- %d" i r)
        (Crt.solve (Array.to_list current))
        (Crt.Tree.solve tree))
    (* the 500s exceed their moduli: update_leaf must reduce *)
    [ (0, 5); (6, 11); (3, 100); (0, 48); (2, 500); (5, 500); (1, 120) ];
  Alcotest.check_raises "update out of range"
    (Invalid_argument "Crt.Tree.update_leaf: index out of range") (fun () ->
      Crt.Tree.update_leaf tree 7 Z.zero);
  Alcotest.check_raises "leaf_modulus out of range"
    (Invalid_argument "Crt.Tree.leaf_modulus: index out of range") (fun () ->
      ignore (Crt.Tree.leaf_modulus tree (-1)));
  (* degenerate: empty tree *)
  let empty = Crt.Tree.build [] in
  Alcotest.(check int) "empty size" 0 (Crt.Tree.size empty);
  Alcotest.check z "empty solve" Z.zero (Crt.Tree.solve empty);
  Alcotest.check z "empty modulus" Z.one (Crt.Tree.modulus empty)

let test_crt_errors () =
  Alcotest.check_raises "non-coprime"
    (Invalid_argument "Crt.solve: moduli not coprime") (fun () ->
      ignore (Crt.solve [ Z.one, Z.of_int 6; Z.zero, Z.of_int 4 ]));
  Alcotest.check_raises "modulus 1"
    (Invalid_argument "Crt.solve: modulus <= 1") (fun () ->
      ignore (Crt.solve [ Z.zero, Z.one ]));
  Alcotest.check z "empty" Z.zero (Crt.solve [])

(* ------------------------------------------------------------------ *)
(* Jacobi                                                              *)
(* ------------------------------------------------------------------ *)

let test_jacobi_known () =
  (* Known values: (1/1)=1, (2/3)=-1, (2/7)=1, (3/5)=-1, (1001/9907)=-1. *)
  let j a n = Jacobi.symbol (Z.of_int a) (Z.of_int n) in
  Alcotest.(check int) "(1/1)" 1 (j 1 1);
  Alcotest.(check int) "(2/3)" (-1) (j 2 3);
  Alcotest.(check int) "(2/7)" 1 (j 2 7);
  Alcotest.(check int) "(3/5)" (-1) (j 3 5);
  Alcotest.(check int) "(1001/9907)" (-1) (j 1001 9907);
  Alcotest.(check int) "(0/9)" 0 (j 0 9);
  Alcotest.(check int) "(12/9)" 0 (j 12 9)

let test_jacobi_vs_legendre () =
  (* For odd primes p, the Jacobi symbol equals the Legendre symbol. *)
  let primes = List.filter (fun p -> p > 2) (Sieve.primes_below 200) in
  List.iter
    (fun p ->
      for a = 0 to 30 do
        Alcotest.(check int)
          (Printf.sprintf "(%d/%d)" a p)
          (Jacobi.legendre (Z.of_int a) (Z.of_int p))
          (Jacobi.symbol (Z.of_int a) (Z.of_int p))
      done)
    primes

(* ------------------------------------------------------------------ *)
(* Discrete logs                                                       *)
(* ------------------------------------------------------------------ *)

(* Appendix B working example: modulus N = 555229357, h = 474959247 of
   order 49, h^x = 65281917 with x = 31.  Table V lists the powers of
   alpha_1 = alpha^(49/7). *)
let test_appendix_b_dlog () =
  let n = Z.of_int 555229357 in
  let mctx = Montgomery.create n in
  let alpha = Z.of_int 474959247 and beta = Z.of_int 65281917 in
  Alcotest.check zopt "brute" (Some (Z.of_int 31))
    (Dlog.brute n ~base:alpha ~target:beta ~bound:(Z.of_int 49));
  Alcotest.check zopt "bsgs" (Some (Z.of_int 31))
    (Dlog.bsgs n ~base:alpha ~target:beta ~order:(Z.of_int 49));
  Alcotest.check zopt "pohlig-hellman" (Some (Z.of_int 31))
    (Dlog.pohlig_hellman_prime_power mctx ~base:alpha ~target:beta
       ~p:(Z.of_int 7) ~c:2)

let test_table_v () =
  (* Table V: all powers of alpha_1 = alpha^7 mod N. *)
  let n = Z.of_int 555229357 in
  let ctx = Montgomery.create n in
  let alpha = Z.of_int 474959247 in
  let alpha1 = Montgomery.powm ctx alpha (Z.of_int 7) in
  Alcotest.check z "alpha1" (Z.of_int 98589017) alpha1;
  let expected =
    [ 1, 98589017; 2, 230485133; 3, 466965543; 4, 543238802;
      5, 127566194; 6, 21649616; 7, 1 ]
  in
  List.iter
    (fun (x, v) ->
      Alcotest.check z
        (Printf.sprintf "alpha1^%d" x)
        (Z.of_int v)
        (Montgomery.powm ctx alpha1 (Z.of_int x)))
    expected;
  (* The two digit lookups of the worked example: c0 = 3, c1 = 4, x = 31. *)
  let beta = Z.of_int 65281917 in
  let beta0 = Montgomery.powm ctx beta (Z.of_int 7) in
  Alcotest.check z "beta0 = alpha1^3" (Z.of_int 466965543) beta0

let test_dlog_random_small () =
  (* base = primitive-ish element mod a prime; verify bsgs on random x. *)
  let p = Z.of_int 1000003 in
  let ctx = Montgomery.create p in
  let g = Z.of_int 2 in
  for x = 0 to 20 do
    let x = x * 41 in
    let target = Montgomery.powm ctx g (Z.of_int x) in
    match Dlog.bsgs p ~base:g ~target ~order:(Z.pred p) with
    | None -> Alcotest.failf "bsgs failed for x=%d" x
    | Some x' ->
      (* g may not be primitive; check g^x' = target instead of x = x'. *)
      Alcotest.check z "reproduces target" target (Montgomery.powm ctx g x')
  done

let test_dlog_prime_power_big () =
  (* Build the exact PIR group shape: pi = 3^20, Q0 = 2*q0*pi + 1,
     Q1 = 2*q1 + 1, N = Q0*Q1, solve dlog in the order-pi subgroup. *)
  let pi = Z.pow (Z.of_int 3) 20 in
  let _, q0 = Primegen.semi_safe ~q_bits:24 ~multiple:pi rand in
  let _, q1 = Primegen.semi_safe ~q_bits:24 ~multiple:Z.one rand in
  let n = Z.mul q0 q1 in
  let mctx = Montgomery.create n in
  let phi = Z.mul (Z.pred q0) (Z.pred q1) in
  (* h = g^(phi/pi) has order dividing pi; retry until order is exactly pi. *)
  let rec find_h g =
    let h = Montgomery.powm mctx g (Z.div phi pi) in
    let h3 = Montgomery.powm mctx h (Z.div pi (Z.of_int 3)) in
    if Z.equal h3 Z.one then find_h (Z.succ g) else h
  in
  let h = find_h Z.two in
  let secret = Z.of_string "2259436191676" in
  let secret = Z.erem secret pi in
  let target = Montgomery.powm mctx h secret in
  Alcotest.check zopt "recovers secret" (Some secret)
    (Dlog.pohlig_hellman_prime_power mctx ~base:h ~target ~p:(Z.of_int 3) ~c:20)

let test_dlog_solver_reuse () =
  (* One Prime_power_solver must serve many targets (the PIR client
     decodes repeatedly against a fixed instance) and agree with the
     one-shot entry point. *)
  let pi = Z.pow (Z.of_int 3) 12 in
  let _, q0 = Primegen.semi_safe ~q_bits:20 ~multiple:pi rand in
  let _, q1 = Primegen.semi_safe ~q_bits:20 ~multiple:Z.one rand in
  let n = Z.mul q0 q1 in
  let mctx = Montgomery.create n in
  let phi = Z.mul (Z.pred q0) (Z.pred q1) in
  let rec find_h g =
    let h = Montgomery.powm mctx g (Z.div phi pi) in
    let h3 = Montgomery.powm mctx h (Z.div pi (Z.of_int 3)) in
    if Z.equal h3 Z.one then find_h (Z.succ g) else h
  in
  let h = find_h Z.two in
  let solver = Dlog.Prime_power_solver.make mctx ~base:h ~p:(Z.of_int 3) ~c:12 in
  List.iter
    (fun secret ->
      let secret = Z.erem (Z.of_int secret) pi in
      let target = Montgomery.powm mctx h secret in
      Alcotest.check zopt
        (Printf.sprintf "solver reuse x=%s" (Z.to_string secret))
        (Some secret)
        (Dlog.Prime_power_solver.solve solver target);
      Alcotest.check zopt "matches one-shot" (Some secret)
        (Dlog.pohlig_hellman_prime_power mctx ~base:h ~target ~p:(Z.of_int 3)
           ~c:12))
    [ 0; 1; 2; 531440; 265720; 77777; 300000 ]

let test_dlog_composite_order () =
  (* Full Pohlig-Hellman with CRT combine: group (Z/pZ)* with smooth p-1. *)
  let p = Z.of_int 8101 in (* 8101 - 1 = 2^2 * 3^4 * 5^2 *)
  let mctx = Montgomery.create p in
  let g = Z.of_int 6 in (* 6 is a primitive root mod 8101 *)
  let factors = [ Z.two, 2; Z.of_int 3, 4; Z.of_int 5, 2 ] in
  List.iter
    (fun x ->
      let target = Montgomery.powm mctx g (Z.of_int x) in
      Alcotest.check zopt (Printf.sprintf "x=%d" x) (Some (Z.of_int x))
        (Dlog.pohlig_hellman mctx ~base:g ~target ~factors))
    [ 0; 1; 2; 100; 4097; 8099 ]

let test_dlog_not_in_subgroup () =
  (* A target outside the subgroup must yield None, not a wrong answer. *)
  let n = Z.of_int 555229357 in
  let mctx = Montgomery.create n in
  let alpha = Z.of_int 474959247 in
  Alcotest.check zopt "outside subgroup" None
    (Dlog.pohlig_hellman_prime_power mctx ~base:alpha ~target:(Z.of_int 2)
       ~p:(Z.of_int 7) ~c:2)

(* Edge cases of the PIR decode: exponent-1 prime powers (c = 1 slots of
   the plan), the extreme residues 0 and pi - 1, and a single-congruence
   CRT — the degenerate shapes a one-cell or one-slot deployment hits. *)
let test_dlog_exponent_one () =
  (* alpha1 = alpha^7 generates the order-7 subgroup: a c = 1 instance. *)
  let n = Z.of_int 555229357 in
  let mctx = Montgomery.create n in
  let alpha1 = Z.of_int 98589017 in
  List.iter
    (fun x ->
      let target = Montgomery.powm mctx alpha1 (Z.of_int x) in
      Alcotest.check zopt
        (Printf.sprintf "c=1, x=%d" x)
        (Some (Z.of_int x))
        (Dlog.pohlig_hellman_prime_power mctx ~base:alpha1 ~target
           ~p:(Z.of_int 7) ~c:1))
    [ 0; 1; 3; 6 ];
  (* Outside the subgroup: None even for c = 1. *)
  Alcotest.check zopt "c=1 outside subgroup" None
    (Dlog.pohlig_hellman_prime_power mctx ~base:alpha1 ~target:Z.two
       ~p:(Z.of_int 7) ~c:1)

let test_dlog_extreme_residues () =
  (* Residue 0 (target = 1) and residue pi - 1 at both ends of the order-49
     subgroup of the Appendix B group. *)
  let n = Z.of_int 555229357 in
  let mctx = Montgomery.create n in
  let alpha = Z.of_int 474959247 in
  let solve target =
    Dlog.pohlig_hellman_prime_power mctx ~base:alpha ~target ~p:(Z.of_int 7)
      ~c:2
  in
  Alcotest.check zopt "residue 0" (Some Z.zero) (solve Z.one);
  let last = Z.of_int 48 in
  Alcotest.check zopt "residue pi-1" (Some last)
    (solve (Montgomery.powm mctx alpha last));
  (* bsgs agrees at both extremes. *)
  Alcotest.check zopt "bsgs residue 0" (Some Z.zero)
    (Dlog.bsgs n ~base:alpha ~target:Z.one ~order:(Z.of_int 49));
  Alcotest.check zopt "bsgs residue pi-1" (Some last)
    (Dlog.bsgs n ~base:alpha ~target:(Montgomery.powm mctx alpha last)
       ~order:(Z.of_int 49))

(* Fault order at depth: a shared factor between leaves in opposite
   halves of an 8-leaf tree is caught (only the leaf inversions see it),
   and a modulus <= 1 anywhere is reported before any coprimality fault,
   even one at the front of the list. *)
let test_crt_fault_order () =
  let system ms = List.map (fun m -> (Z.zero, Z.of_int m)) ms in
  let deep = system [ 7; 9; 11; 13; 17; 19; 15; 23 ] in
  Alcotest.check_raises "9 and 15 at positions 1 and 6"
    (Invalid_argument "Crt.solve: moduli not coprime") (fun () ->
      ignore (Crt.solve deep));
  Alcotest.check_raises "tree build, same message"
    (Invalid_argument "Crt.solve: moduli not coprime") (fun () ->
      ignore (Crt.Tree.build deep));
  Alcotest.check_raises "modulus <= 1 wins over a non-coprime front pair"
    (Invalid_argument "Crt.solve: modulus <= 1") (fun () ->
      ignore (Crt.solve (system [ 6; 4; 5; 7; 1 ])));
  Alcotest.check_raises "zero modulus at the end"
    (Invalid_argument "Crt.solve: modulus <= 1") (fun () ->
      ignore (Crt.Tree.build (system [ 6; 4; 0 ])))

let test_crt_edge_cases () =
  (* A single congruence — the single-slot plan of a one-cell database. *)
  Alcotest.check z "single congruence" (Z.of_int 31)
    (Crt.solve [ Z.of_int 31, Z.of_int 49 ]);
  (* Residue 0 everywhere and residue m - 1 everywhere. *)
  let moduli = [ Z.of_int 49; Z.of_int 121; Z.of_int 169 ] in
  Alcotest.check z "all zero" Z.zero
    (Crt.solve (List.map (fun m -> (Z.zero, m)) moduli));
  let prod = List.fold_left Z.mul Z.one moduli in
  Alcotest.check z "all m-1" (Z.pred prod)
    (Crt.solve (List.map (fun m -> (Z.pred m, m)) moduli));
  (* Residues are reduced mod the product: result below the product. *)
  let sol = Crt.solve (List.map (fun m -> (Z.pred m, m)) moduli) in
  Alcotest.(check bool) "canonical" true
    (Z.compare sol prod < 0 && Z.compare sol Z.zero >= 0)

(* ------------------------------------------------------------------ *)
(* Modular exponentiation oracles                                       *)
(* ------------------------------------------------------------------ *)

(* Montgomery.powm and the naive square-and-multiply over Z must agree on
   random odd moduli — the PIR server answer and the OT exponentiations
   both lean on the engine. *)
let test_powm_cross_check () =
  for i = 0 to 49 do
    let bits = 16 + (i * 7 mod 200) in
    let m = Z.random_bits ~bits rand in
    let m = if Z.is_even m then Z.succ m else m in  (* force odd *)
    let m = if Z.compare m (Z.of_int 3) < 0 then Z.of_int 3 else m in
    let base = Z.erem (Z.random_bits ~bits:(bits + 13) rand) m in
    let e = Z.random_bits ~bits:(1 + (i * 11 mod 160)) rand in
    let naive = Z.mod_pow_naive base e m in
    let mont = Montgomery.powm (Montgomery.create m) base e in
    if not (Z.equal naive mont) then
      Alcotest.failf "case %d: montgomery disagrees with naive" i
  done;
  (* Exponent edge cases: 0, 1, and base 0/1 on a fixed modulus. *)
  let m = Z.of_int 1000003 in
  let mctx = Montgomery.create m in
  List.iter
    (fun (b, e) ->
      let b = Z.of_int b and e = Z.of_int e in
      let expect = Z.mod_pow_naive b e m in
      Alcotest.check z "montgomery edge" expect (Montgomery.powm mctx b e))
    [ (0, 0); (0, 5); (1, 0); (1, 12345); (2, 0); (2, 1); (999999, 999999) ]

(* ------------------------------------------------------------------ *)
(* Factorisation                                                       *)
(* ------------------------------------------------------------------ *)

let test_factor_appendix_phi () =
  (* Appendix B prints phi(N) = 554894620 = 2^2 * 5 * 7^2 * 17 * 19 * 1753. *)
  let fs = Factor.factor ~rand (Z.of_int 554894620) in
  let expected =
    [ Z.two, 2; Z.of_int 5, 1; Z.of_int 7, 2; Z.of_int 17, 1;
      Z.of_int 19, 1; Z.of_int 1753, 1 ]
  in
  Alcotest.(check int) "count" (List.length expected) (List.length fs);
  List.iter2
    (fun (p, c) (p', c') ->
      Alcotest.check z "prime" p p';
      Alcotest.(check int) "exponent" c c')
    expected fs

let test_factor_structured () =
  let cases =
    [ Z.one; Z.of_int 2; Z.of_int 97; Z.of_int 5040;
      Z.pow (Z.of_int 10007) 3;
      Z.mul (Primegen.random_prime ~bits:36 rand)
        (Primegen.random_prime ~bits:36 rand) ]
  in
  List.iter
    (fun n ->
      let fs = Factor.factor ~rand n in
      Alcotest.check z (Z.to_string n) n (Factor.recompose fs);
      List.iter
        (fun (p, c) ->
          Alcotest.(check bool) "prime factor" true (Primality.is_prime ~rand p);
          Alcotest.(check bool) "positive exponent" true (c > 0))
        fs)
    cases

let test_factor_enables_dlog () =
  (* Factor a group order, then solve a dlog with general Pohlig-Hellman:
     the two modules compose. *)
  let p = Z.of_int 8101 in
  let factors = Factor.factor ~rand (Z.pred p) in
  let mctx = Montgomery.create p in
  let g = Z.of_int 6 in
  let target = Montgomery.powm mctx g (Z.of_int 1234) in
  Alcotest.check zopt "solved" (Some (Z.of_int 1234))
    (Dlog.pohlig_hellman mctx ~base:g ~target ~factors)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop name count arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let props =
  [ prop "crt roundtrip" 100
      (QCheck.make
         QCheck.Gen.(pair (int_range 0 1000000) (int_range 1 1000)))
      (fun (x, salt) ->
        (* random pairwise-coprime moduli: distinct primes *)
        let ps = Sieve.first_primes ~from:(3 + (salt mod 50)) 5 in
        let congruences =
          List.map (fun p -> Z.of_int (x mod p), Z.of_int p) ps
        in
        let sol = Crt.solve congruences in
        Crt.check sol congruences);
    prop "crt product tree = sequential fold" 100
      (QCheck.make
         QCheck.Gen.(
           triple (int_range 0 1000000000) (int_range 0 40) (int_range 1 12)))
      (fun (x, start, k) ->
        (* distinct primes raised to small powers: pairwise coprime,
           uneven sizes so the tree splits are non-trivial *)
        let ps = Sieve.first_primes ~from:(3 + (2 * start)) k in
        let moduli =
          List.mapi (fun i p -> Z.pow (Z.of_int p) (1 + (i mod 3))) ps
        in
        let congruences =
          List.map (fun m -> (Z.erem (Z.of_int x) m, m)) moduli
        in
        let tree = Crt.solve congruences in
        Z.equal tree (Lbq_oracle.Crt_fold.solve congruences)
        && Crt.check tree congruences);
    prop "tree update_leaf = fresh solve" 60
      (QCheck.make
         QCheck.Gen.(
           triple (int_range 0 1000000000) (int_range 0 40) (int_range 1 10)))
      (fun (x, start, k) ->
        let ps = Sieve.first_primes ~from:(3 + (2 * start)) k in
        let moduli =
          List.mapi (fun i p -> Z.pow (Z.of_int p) (1 + (i mod 3))) ps
        in
        let current =
          Array.of_list
            (List.map (fun m -> (Z.erem (Z.of_int x) m, m)) moduli)
        in
        let tree = Crt.Tree.build (Array.to_list current) in
        let ok = ref (Z.equal (Crt.Tree.solve tree) (Crt.solve (Array.to_list current))) in
        for step = 0 to 7 do
          let i = (x + (step * 7)) mod k in
          let _, m = current.(i) in
          let r = Z.erem (Z.of_int (x + (step * 131))) m in
          current.(i) <- (r, m);
          Crt.Tree.update_leaf tree i r;
          ok :=
            !ok
            && Z.equal (Crt.Tree.solve tree) (Crt.solve (Array.to_list current))
        done;
        !ok && Crt.check (Crt.Tree.solve tree) (Array.to_list current));
    prop "crt tree = sequential fold on PIR plan slots" 40
      (QCheck.make
         QCheck.Gen.(
           triple (int_range 1 40) (int_range 64 700) (int_range 0 1000000)))
      (fun (k, block_bits, salt) ->
        (* The deployment's moduli (prime powers of |pi| ~ block_bits):
           multi-limb remainder-tree divisions, Toom-width products and
           a real final reduction mod M.  Residues are drawn a few bits
           wider than pi, so the leaf reductions are exercised too. *)
        let plan = Lbq_pir.Gr.make_plan ~count:k ~block_bits () in
        let drbg = Drbg.create ~seed:(Printf.sprintf "crt-plan-%d" salt) () in
        let residue m = Z.random_bits ~bits:(Z.numbits m + 4) (Drbg.rand drbg) in
        let current =
          Array.init k (fun i ->
              let m = (Lbq_pir.Gr.plan_slot plan i).Lbq_pir.Gr.pi in
              (residue m, m))
        in
        let agrees tree =
          let congruences = Array.to_list current in
          let e = Crt.Tree.solve tree in
          Z.equal e (Lbq_oracle.Crt_fold.solve congruences)
          && Crt.check e congruences
        in
        let tree = Crt.Tree.build (Array.to_list current) in
        let built = agrees tree in
        for _ = 1 to 8 do
          let i = Drbg.int drbg k in
          let r = residue (snd current.(i)) in
          current.(i) <- (r, snd current.(i));
          Crt.Tree.update_leaf tree i r
        done;
        built && agrees tree);
    prop "jacobi multiplicative in numerator" 200
      (QCheck.make
         QCheck.Gen.(triple (int_range 0 5000) (int_range 0 5000)
                       (int_range 0 2000)))
      (fun (a, b, i) ->
        let n = (2 * i) + 3 in
        Jacobi.symbol (Z.of_int (a * b)) (Z.of_int n)
        = Jacobi.symbol (Z.of_int a) (Z.of_int n)
          * Jacobi.symbol (Z.of_int b) (Z.of_int n));
    prop "jacobi periodic in numerator" 200
      (QCheck.make QCheck.Gen.(pair (int_range 0 10000) (int_range 0 2000)))
      (fun (a, i) ->
        let n = (2 * i) + 3 in
        Jacobi.symbol (Z.of_int a) (Z.of_int n)
        = Jacobi.symbol (Z.of_int (a + n)) (Z.of_int n));
    prop "bsgs inverts powm" 50
      (QCheck.make QCheck.Gen.(int_range 0 10000))
      (fun x ->
        let p = Z.of_int 100003 in
        let g = Z.of_int 5 in
        let target = Z.mod_pow_naive g (Z.of_int x) p in
        match Dlog.bsgs p ~base:g ~target ~order:(Z.pred p) with
        | None -> false
        | Some x' -> Z.equal target (Z.mod_pow_naive g x' p));
    prop "montgomery PH solver = plain-Z bsgs/brute" 25
      (QCheck.make
         QCheck.Gen.(triple (int_range 0 5) (int_range 1 5)
                       (int_range 0 1000000)))
      (fun (pi_idx, c, salt) ->
        (* A random PIR-shaped prime-power subgroup: pi = p^c divides
           phi(N) for N = Q0 * Q1 with Q0 = 2 q0 pi + 1.  The solver runs
           on Montgomery windows; the oracles on plain Z arithmetic. *)
        let p = Z.of_int [| 3; 5; 7; 11; 13; 101 |].(pi_idx) in
        let pi = Z.pow p c in
        let rand =
          Drbg.rand (Drbg.create ~seed:(Printf.sprintf "ph-%d" salt) ())
        in
        let _, q0 = Primegen.semi_safe ~q_bits:16 ~multiple:pi rand in
        let rec other () =
          let _, q1 = Primegen.semi_safe ~q_bits:16 ~multiple:Z.one rand in
          if Z.equal q1 q0 then other () else q1
        in
        let n = Z.mul q0 (other ()) in
        let ctx = Montgomery.create n in
        let phi = Z.mul (Z.pred q0) (Z.pred (Z.div n q0)) in
        let rec find_h g =
          let h = Montgomery.powm ctx g (Z.div phi pi) in
          if Z.equal (Montgomery.powm ctx h (Z.div pi p)) Z.one then
            find_h (Z.succ g)
          else h
        in
        let h = find_h (Z.add Z.two (Z.random_below ~bound:(Z.of_int 1000) rand)) in
        let solver =
          Dlog.Prime_power_solver.make ctx ~base:h ~p ~c
        in
        let agrees target =
          let got = Dlog.Prime_power_solver.solve solver target in
          let bsgs = Dlog.bsgs n ~base:h ~target ~order:pi in
          let brute =
            if Z.leq pi (Z.of_int 2000) then
              Dlog.brute n ~base:h ~target ~bound:pi
            else bsgs
          in
          Option.equal Z.equal got bsgs && Option.equal Z.equal got brute
        in
        let x = Z.random_below ~bound:pi rand in
        (* in-subgroup targets (random, both extremes) and one random
           unit that is almost surely outside the subgroup *)
        agrees (Montgomery.powm ctx h x)
        && agrees Z.one
        && agrees (Montgomery.powm ctx h (Z.pred pi))
        && agrees (Z.add Z.two (Z.random_below ~bound:(Z.sub n (Z.of_int 4)) rand)));
    prop "generated primes pass fermat" 10
      (QCheck.make QCheck.Gen.(int_range 20 80))
      (fun bits ->
        let p = Primegen.random_prime ~bits rand in
        Primality.fermat ~rand p);
  ]

let () =
  Alcotest.run "lbq_numth"
    [ ("sieve", [ Alcotest.test_case "basics" `Quick test_sieve ]);
      ("primality",
       [ Alcotest.test_case "vs sieve below 20000" `Quick test_primality_vs_sieve;
         Alcotest.test_case "carmichael numbers" `Quick test_carmichael;
         Alcotest.test_case "known big primes" `Quick test_known_big_primes;
         Alcotest.test_case "primegen widths" `Quick test_primegen;
         Alcotest.test_case "semi-safe primes" `Quick test_semi_safe;
         Alcotest.test_case "sieved search funnel" `Quick test_sieved_search_funnel;
         Alcotest.test_case "reference loops still work" `Quick
           test_reference_loops_still_work;
         Alcotest.test_case "schnorr modulus" `Quick test_schnorr_modulus;
         Alcotest.test_case "pocklington = deterministic MR" `Quick
           test_pocklington_vs_mr;
         Alcotest.test_case "pocklington adversarial composites" `Quick
           test_pocklington_adversarial;
         Alcotest.test_case "segment marks = direct rem" `Quick
           test_segment_marks;
         Alcotest.test_case "walks = wheel oracle" `Quick
           test_walks_match_wheel_oracle ]);
      ("crt",
       [ Alcotest.test_case "paper example (App. B)" `Quick test_crt_paper_example;
         Alcotest.test_case "retained tree updates" `Quick test_crt_tree_update;
         Alcotest.test_case "errors" `Quick test_crt_errors;
         Alcotest.test_case "fault order" `Quick test_crt_fault_order ]);
      ("jacobi",
       [ Alcotest.test_case "known values" `Quick test_jacobi_known;
         Alcotest.test_case "vs legendre" `Quick test_jacobi_vs_legendre ]);
      ("dlog",
       [ Alcotest.test_case "appendix B example" `Quick test_appendix_b_dlog;
         Alcotest.test_case "table V" `Quick test_table_v;
         Alcotest.test_case "random small" `Quick test_dlog_random_small;
         Alcotest.test_case "prime power big" `Quick test_dlog_prime_power_big;
         Alcotest.test_case "solver reuse" `Quick test_dlog_solver_reuse;
         Alcotest.test_case "composite order" `Quick test_dlog_composite_order;
         Alcotest.test_case "not in subgroup" `Quick test_dlog_not_in_subgroup;
         Alcotest.test_case "exponent-1 slots" `Quick test_dlog_exponent_one;
         Alcotest.test_case "extreme residues" `Quick
           test_dlog_extreme_residues ]);
      ("crt-edges",
       [ Alcotest.test_case "degenerate shapes" `Quick test_crt_edge_cases ]);
      ("powm",
       [ Alcotest.test_case "montgomery/naive agree" `Quick
         test_powm_cross_check ]);
      ("factor",
       [ Alcotest.test_case "appendix phi" `Quick test_factor_appendix_phi;
         Alcotest.test_case "structured" `Quick test_factor_structured;
         Alcotest.test_case "composes with dlog" `Quick test_factor_enables_dlog ]);
      ("properties", props) ]
