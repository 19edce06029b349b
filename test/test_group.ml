(* Tests for lbq_group: Schnorr group structure, Paillier round-trips and
   homomorphisms. *)

open Lbq_bignum
open Lbq_numth
open Lbq_group
open Lbq_crypto

let z = Alcotest.testable Z.pp Z.equal

let drbg = Drbg.create ~seed:"test-group" ()
let rand = Drbg.rand drbg

let grp = Schnorr.test_group ()

(* ------------------------------------------------------------------ *)
(* Schnorr                                                             *)
(* ------------------------------------------------------------------ *)

let test_fixed_groups_valid () =
  List.iter
    (fun (name, g, bits) ->
      Alcotest.(check int) (name ^ " p bits") bits (Schnorr.p_bits g);
      Alcotest.(check int) (name ^ " q bits") 160 (Schnorr.q_bits g);
      Alcotest.(check bool) (name ^ " q | p-1") true
        (Z.is_zero (Z.erem (Z.pred (Schnorr.p g)) (Schnorr.q g)));
      Alcotest.(check bool) (name ^ " g in subgroup") true
        (Schnorr.mem g (Schnorr.g g));
      Alcotest.(check bool) (name ^ " q prime") true
        (Primality.is_prime ~rand (Schnorr.q g)))
    [ "test", Schnorr.test_group (), 256;
      "mid", Schnorr.mid_group (), 512;
      "paper", Schnorr.paper_group (), 1024 ]

let test_fixed_p_prime () =
  (* Expensive-ish: check primality of all three fixed moduli. *)
  List.iter
    (fun g -> Alcotest.(check bool) "p prime" true
        (Primality.is_prime ~rand (Schnorr.p g)))
    [ Schnorr.test_group (); Schnorr.mid_group (); Schnorr.paper_group () ]

let test_group_laws () =
  let a = Schnorr.pow_g grp (Z.of_int 12345) in
  let b = Schnorr.pow_g grp (Z.of_int 54321) in
  Alcotest.check z "commutes" (Schnorr.mul grp a b) (Schnorr.mul grp b a);
  Alcotest.check z "inverse" Z.one (Schnorr.mul grp a (Schnorr.inv grp a));
  Alcotest.check z "exp adds"
    (Schnorr.pow_g grp (Z.of_int (12345 + 54321)))
    (Schnorr.mul grp a b);
  Alcotest.(check bool) "product in subgroup" true
    (Schnorr.mem grp (Schnorr.mul grp a b));
  Alcotest.(check bool) "2 not in subgroup (almost surely)" false
    (Schnorr.mem grp Z.two)

let test_pow_reduces_exponent () =
  let e = Z.of_int 7 in
  Alcotest.check z "e vs e+q"
    (Schnorr.pow_g grp e)
    (Schnorr.pow_g grp (Z.add e (Schnorr.q grp)))

let test_stage1_engine () =
  (* Comb pow_g vs the generic ladder at the edge exponents and a few
     random ones, plus the Straus and per-base-table paths. *)
  let q = Schnorr.q grp in
  let gen = Schnorr.g grp in
  let exps =
    [ Z.zero; Z.one; Z.two; Z.pred q; Z.pred (Z.pred q);
      Z.random_below ~bound:q rand; Z.random_below ~bound:q rand ]
  in
  List.iter
    (fun e ->
      Alcotest.check z
        ("comb = generic for " ^ Z.to_string e)
        (Schnorr.pow grp gen e) (Schnorr.pow_g grp e))
    exps;
  (* pow2_g_counted against the product of two independent
     exponentiations. *)
  let b2 = Schnorr.pow_g grp (Z.of_int 777) in
  List.iter
    (fun e1 ->
      List.iter
        (fun e2 ->
          Alcotest.check z "pow2_g_counted = pow_g * pow"
            (Schnorr.mul grp (Schnorr.pow_g grp e1) (Schnorr.pow grp b2 e2))
            (fst (Schnorr.pow2_g_counted grp e1 b2 e2)))
        [ Z.zero; Z.one; Z.pred q ])
    [ Z.zero; Z.one; Z.pred q ];
  (* Per-base comb: same results as pow on the same edge exponents. *)
  let fb = Schnorr.base_comb grp b2 in
  List.iter
    (fun e ->
      Alcotest.check z "pow_comb = pow" (Schnorr.pow grp b2 e)
        (Schnorr.pow_comb grp fb e))
    exps

let test_stage1_costs_measured () =
  (* The closed-form cost oracles must match the engine's real
     multiplication count tick for tick. *)
  let q = Schnorr.q grp in
  let b2 = Schnorr.pow_g grp (Z.of_int 31337) in
  List.iter
    (fun e ->
      let r = ref 0 in
      ignore (Schnorr.counting grp r (fun () -> Schnorr.pow_g grp e));
      Alcotest.(check int)
        ("pow_g cost for " ^ Z.to_string e)
        (Schnorr.pow_g_cost grp e) !r)
    [ Z.zero; Z.one; Z.pred q; Z.random_below ~bound:q rand ];
  List.iter
    (fun (e1, e2) ->
      let r = ref 0 in
      let v, predicted =
        Schnorr.counting grp r (fun () -> Schnorr.pow2_g_counted grp e1 b2 e2)
      in
      Alcotest.(check int) "pow2_g predicted = measured" predicted !r;
      Alcotest.(check int) "pow2_g_cost agrees"
        (Schnorr.pow2_g_cost grp e1 e2) predicted;
      Alcotest.check z "counted value"
        (Schnorr.mul grp (Schnorr.pow_g grp e1) (Schnorr.pow grp b2 e2)) v)
    [ (Z.zero, Z.zero); (Z.one, Z.pred q);
      (Z.random_below ~bound:q rand, Z.random_below ~bound:q rand) ];
  let r = ref 0 in
  let fb = Schnorr.counting grp r (fun () -> Schnorr.base_comb grp b2) in
  Alcotest.(check int) "base_comb cost" (Schnorr.base_comb_cost grp) !r;
  List.iter
    (fun e ->
      let r = ref 0 in
      let v, c =
        Schnorr.counting grp r (fun () -> Schnorr.pow_comb_counted grp fb e)
      in
      Alcotest.(check int) "pow_comb predicted = measured" c !r;
      Alcotest.check z "pow_comb counted value" (Schnorr.pow grp b2 e) v)
    [ Z.zero; Z.one; Z.pred q; Z.random_below ~bound:q rand ]

let test_of_params_validation () =
  Alcotest.check_raises "bad q"
    (Invalid_argument "Schnorr.of_params: q does not divide p - 1")
    (fun () ->
      ignore (Schnorr.of_params ~p:(Schnorr.p grp) ~q:(Z.of_int 65537)
                ~g:(Schnorr.g grp)));
  Alcotest.check_raises "bad g"
    (Invalid_argument "Schnorr.of_params: g does not generate the order-q subgroup")
    (fun () ->
      ignore (Schnorr.of_params ~p:(Schnorr.p grp) ~q:(Schnorr.q grp) ~g:Z.two))

let test_generate_small () =
  let g = Schnorr.generate ~p_bits:128 ~q_bits:64 rand in
  Alcotest.(check int) "p bits" 128 (Schnorr.p_bits g);
  Alcotest.(check bool) "g in subgroup" true (Schnorr.mem g (Schnorr.g g))

(* ------------------------------------------------------------------ *)
(* Paillier                                                            *)
(* ------------------------------------------------------------------ *)

let psk = Paillier.keygen ~bits:256 rand
let ppk = Paillier.public_of_private psk

let test_paillier_roundtrip () =
  List.iter
    (fun m ->
      let m = Z.of_int m in
      Alcotest.check z (Z.to_string m) m
        (Paillier.decrypt psk (Paillier.encrypt ppk ~rand m)))
    [ 0; 1; 42; 123456789 ]

let test_paillier_homomorphic () =
  let a = Z.of_int 1234 and b = Z.of_int 8766 in
  let ca = Paillier.encrypt ppk ~rand a and cb = Paillier.encrypt ppk ~rand b in
  Alcotest.check z "add" (Z.of_int 10000)
    (Paillier.decrypt psk (Paillier.add ppk ca cb));
  Alcotest.check z "scale" (Z.of_int 6170)
    (Paillier.decrypt psk (Paillier.scale ppk ca (Z.of_int 5)));
  Alcotest.check z "add_plain" (Z.of_int 1300)
    (Paillier.decrypt psk (Paillier.add_plain ppk ca (Z.of_int 66)))

let test_paillier_subtraction_sign () =
  (* The baseline's comparison protocol computes E(a - b) and checks the
     "sign" by magnitude: a - b mod n is huge when negative. *)
  let a = Z.of_int 10 and b = Z.of_int 25 in
  let ca = Paillier.encrypt ppk ~rand a in
  let diff = Paillier.add_plain ppk (Paillier.scale ppk ca Z.one) (Z.neg b) in
  let d = Paillier.decrypt psk diff in
  (* d = a - b mod n = n - 15. *)
  Alcotest.check z "wraps" (Z.sub (Paillier.modulus ppk) (Z.of_int 15)) d

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop name count arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let props =
  [ prop "paillier dec . enc = id" 30
      (QCheck.make QCheck.Gen.(int_range 0 1000000000))
      (fun m ->
        let m = Z.of_int m in
        Z.equal m (Paillier.decrypt psk (Paillier.encrypt ppk ~rand m)));
    prop "paillier additively homomorphic" 30
      (QCheck.make QCheck.Gen.(pair (int_range 0 100000) (int_range 0 100000)))
      (fun (a, b) ->
        let ca = Paillier.encrypt ppk ~rand (Z.of_int a) in
        let cb = Paillier.encrypt ppk ~rand (Z.of_int b) in
        Z.equal (Z.of_int (a + b))
          (Paillier.decrypt psk (Paillier.add ppk ca cb)));
  ]

let () =
  Alcotest.run "lbq_group"
    [ ("schnorr",
       [ Alcotest.test_case "fixed groups valid" `Quick test_fixed_groups_valid;
         Alcotest.test_case "fixed p prime" `Slow test_fixed_p_prime;
         Alcotest.test_case "group laws" `Quick test_group_laws;
         Alcotest.test_case "pow reduces exponent" `Quick test_pow_reduces_exponent;
         Alcotest.test_case "stage-1 engine" `Quick test_stage1_engine;
         Alcotest.test_case "stage-1 costs measured" `Quick test_stage1_costs_measured;
         Alcotest.test_case "of_params validation" `Quick test_of_params_validation;
         Alcotest.test_case "generate small" `Quick test_generate_small ]);
      ("paillier",
       [ Alcotest.test_case "roundtrip" `Quick test_paillier_roundtrip;
         Alcotest.test_case "homomorphic" `Quick test_paillier_homomorphic;
         Alcotest.test_case "subtraction sign" `Quick test_paillier_subtraction_sign ]);
      ("properties", props) ]
