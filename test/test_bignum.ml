(* Tests for lbq_bignum: unit anchors plus property tests against both a
   native-int oracle (small values) and independent reference algorithms
   (big values). *)

open Lbq_bignum
module Mont_ladder = Lbq_oracle.Mont_ladder

let z = Alcotest.testable Z.pp Z.equal

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* Bytes biased toward 0x00 and 0xff so that carry/borrow chains and the
   rare Knuth-D correction branches actually get exercised. *)
let biased_byte =
  QCheck.Gen.(frequency
    [ 3, return '\x00'; 3, return '\xff'; 1, return '\x01';
      1, return '\x80'; 4, map Char.chr (int_bound 255) ])

let gen_z_of_size size_gen =
  QCheck.Gen.(size_gen >>= fun n ->
    map (fun l -> Z.of_bytes_be (String.init (List.length l) (List.nth l)))
      (list_size (return n) biased_byte))

let gen_big = gen_z_of_size QCheck.Gen.(int_range 0 96)

(* Operands spanning the deployment range (40..52 limbs) and beyond the
   CIOS cutoff, for the fused-engine crosschecks. *)
let gen_huge = gen_z_of_size QCheck.Gen.(int_range 0 400)
let gen_signed =
  QCheck.Gen.(map2 (fun z neg -> if neg then Z.neg z else z) gen_big bool)

let arb_big = QCheck.make gen_big ~print:Z.to_string
let arb_signed = QCheck.make gen_signed ~print:Z.to_string
let arb_pair = QCheck.make QCheck.Gen.(pair gen_signed gen_signed)
    ~print:(fun (a, b) -> Z.to_string a ^ ", " ^ Z.to_string b)

let arb_small_pair =
  QCheck.make
    QCheck.Gen.(pair (int_range (-1000000000) 1000000000)
                  (int_range (-1000000000) 1000000000))
    ~print:(fun (a, b) -> string_of_int a ^ ", " ^ string_of_int b)

(* Reference division: binary shift-subtract, independent of Knuth D. *)
let ref_divmod a b =
  if Z.is_zero b then raise Division_by_zero;
  let an = Z.abs a and bn = Z.abs b in
  let q = ref Z.zero and r = ref Z.zero in
  for i = Z.numbits an - 1 downto 0 do
    r := Z.shift_left !r 1;
    if Z.testbit an i then r := Z.add !r Z.one;
    if Z.geq !r bn then begin
      r := Z.sub !r bn;
      q := Z.add (Z.shift_left !q 1) Z.one
    end
    else q := Z.shift_left !q 1
  done;
  let sq = Z.sign a * Z.sign b and sr = Z.sign a in
  (if sq < 0 then Z.neg !q else !q), (if sr < 0 then Z.neg !r else !r)

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let test_int_roundtrip () =
  List.iter
    (fun n ->
      Alcotest.(check int) (string_of_int n) n (Z.to_int (Z.of_int n)))
    [ 0; 1; -1; 42; -42; 1 lsl 26; (1 lsl 26) - 1; 1 lsl 52; max_int; min_int + 1 ]

let test_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Z.to_string (Z.of_string s)))
    [ "0"; "1"; "-1"; "67108864"; "18446744073709551616";
      "123456789012345678901234567890123456789012345678901234567890";
      "-99999999999999999999999999999999999999999999999" ]

let test_hex () =
  Alcotest.(check string) "hex" "deadbeef" (Z.to_hex (Z.of_string "3735928559"));
  Alcotest.(check string) "hex1" "0" (Z.to_hex Z.zero);
  Alcotest.check z "of_hex" (Z.of_int 255) (Z.of_hex "ff");
  Alcotest.check z "of_hex odd" (Z.of_int 4095) (Z.of_hex "fff");
  Alcotest.check z "of_hex upper" (Z.of_int 255) (Z.of_hex "FF");
  (* Non-hex input raises Invalid_argument, never Failure (found by the
     wire fuzzer). *)
  Alcotest.check_raises "bad digit" (Invalid_argument "Z.of_hex: bad digit")
    (fun () -> ignore (Z.of_hex "12g4"));
  Alcotest.check_raises "empty" (Invalid_argument "Z.of_hex: empty")
    (fun () -> ignore (Z.of_hex ""))

let test_bytes () =
  let v = Z.of_string "123456789012345678901234567890" in
  Alcotest.check z "roundtrip" v (Z.of_bytes_be (Z.to_bytes_be v));
  let padded = Z.to_bytes_be_padded v ~len:32 in
  Alcotest.(check int) "len" 32 (String.length padded);
  Alcotest.check z "padded" v (Z.of_bytes_be padded);
  Alcotest.(check string) "zero" "" (Z.to_bytes_be Z.zero)

let test_div_exceptions () =
  Alcotest.check_raises "div0" Division_by_zero (fun () ->
      ignore (Z.div_rem Z.one Z.zero));
  Alcotest.check_raises "not invertible"
    (Invalid_argument "Z.invert: not invertible") (fun () ->
      ignore (Z.invert (Z.of_int 6) (Z.of_int 9)))

let test_pow () =
  Alcotest.check z "2^100"
    (Z.of_string "1267650600228229401496703205376")
    (Z.pow Z.two 100);
  Alcotest.check z "x^0" Z.one (Z.pow (Z.of_int 999) 0);
  Alcotest.check z "3^7" (Z.of_int 2187) (Z.pow (Z.of_int 3) 7)

(* Dividend/divisor patterns engineered to hit the Knuth-D qhat-correction
   and add-back branches (all-ones divisors with near-boundary dividends). *)
let test_knuth_adversarial () =
  let ones n = Z.pred (Z.shift_left Z.one n) in
  let cases =
    [ Z.shift_left (ones 52) 104, ones 52;
      Z.sub (Z.shift_left Z.one 156) Z.one, ones 78;
      Z.shift_left (ones 26) 52, Z.succ (ones 26);
      Z.of_string "340282366920938463463374607431768211455",
      Z.of_string "18446744073709551615";
      (* divisor with max top limb, second limb small *)
      Z.shift_left (ones 130) 260, Z.add (Z.shift_left (ones 26) 104) Z.one ]
  in
  List.iter
    (fun (a, b) ->
      let q, r = Z.div_rem a b in
      let q', r' = ref_divmod a b in
      Alcotest.check z "q" q' q;
      Alcotest.check z "r" r' r)
    cases

let test_shift () =
  let v = Z.of_string "123456789123456789123456789" in
  Alcotest.check z "lr" v (Z.shift_right (Z.shift_left v 131) 131);
  Alcotest.check z "floor shift neg"
    (Z.of_int (-2)) (Z.shift_right (Z.of_int (-3)) 1);
  Alcotest.check z "floor shift neg exact"
    (Z.of_int (-2)) (Z.shift_right (Z.of_int (-4)) 1)

let test_numbits () =
  Alcotest.(check int) "0" 0 (Z.numbits Z.zero);
  Alcotest.(check int) "1" 1 (Z.numbits Z.one);
  Alcotest.(check int) "255" 8 (Z.numbits (Z.of_int 255));
  Alcotest.(check int) "256" 9 (Z.numbits (Z.of_int 256));
  Alcotest.(check int) "2^100" 101 (Z.numbits (Z.pow Z.two 100))

let test_sqr_shapes () =
  let nat = Alcotest.testable
      (fun fmt a -> Format.pp_print_string fmt (Nat.to_string a))
      Nat.equal
  in
  let check_shape name (a : Nat.t) =
    Alcotest.check nat name (Nat.mul a a) (Nat.sqr a)
  in
  check_shape "zero" Nat.zero;
  check_shape "one" Nat.one;
  check_shape "one limb" (Nat.of_int 12345);
  check_shape "max limb" (Nat.of_int Nat.mask);
  (* Around the Karatsuba threshold (32 limbs), and all-ones limbs to
     push every carry chain to its maximum. *)
  List.iter
    (fun limbs ->
      check_shape
        (Printf.sprintf "all-ones %d limbs" limbs)
        (Array.make limbs Nat.mask);
      let seeded = Array.init limbs (fun i -> (i * 7919 + 13) land Nat.mask) in
      check_shape
        (Printf.sprintf "patterned %d limbs" limbs)
        (Nat.normalize seeded))
    [ 2; 31; 32; 33; 64; 65 ]

(* The size ladder itself: thresholds stay ordered as tuned, and the
   Karatsuba -> Toom-3 handoff is byte-identical to schoolbook across the
   cutoff boundaries (the carry-heaviest all-ones patterns included). *)
let test_mul_ladder () =
  let nat = Alcotest.testable
      (fun fmt a -> Format.pp_print_string fmt (Nat.to_string a))
      Nat.equal
  in
  Alcotest.(check bool) "karatsuba threshold sane" true
    (Nat.karatsuba_threshold >= 8);
  Alcotest.(check bool) "toom3 above karatsuba" true
    (Nat.toom3_threshold >= 2 * Nat.karatsuba_threshold);
  let patterned limbs salt =
    Nat.normalize
      (Array.init limbs (fun i -> (((i + salt) * 7919) + salt) land Nat.mask))
  in
  let boundary =
    [ Nat.toom3_threshold - 2; Nat.toom3_threshold - 1; Nat.toom3_threshold;
      Nat.toom3_threshold + 1; Nat.toom3_threshold + 5;
      2 * Nat.toom3_threshold; (3 * Nat.toom3_threshold) + 7 ]
  in
  List.iter
    (fun la ->
      List.iter
        (fun lb ->
          let a = patterned la 3 and b = patterned lb 11 in
          Alcotest.check nat
            (Printf.sprintf "mul %dx%d = schoolbook" la lb)
            (Nat.mul_schoolbook a b) (Nat.mul a b);
          let ones_a = Array.make la Nat.mask and ones_b = Array.make lb Nat.mask in
          Alcotest.check nat
            (Printf.sprintf "mul %dx%d all-ones" la lb)
            (Nat.mul_schoolbook ones_a ones_b) (Nat.mul ones_a ones_b))
        [ Nat.karatsuba_threshold + 1; Nat.toom3_threshold;
          Nat.toom3_threshold + 3 ];
      let a = patterned la 5 in
      Alcotest.check nat
        (Printf.sprintf "sqr %d = schoolbook mul" la)
        (Nat.mul_schoolbook a a) (Nat.sqr a))
    boundary

(* The fused CIOS engine at its edges: aliased destinations, zero and
   single-limb residues, and the trivial modulus n = 1.  The engine's
   Montgomery form uses its own internal radix, so correctness is
   checked at the Z level (through to_window/of_window) and the raw
   kernels are checked byte-identical to the window ops. *)
let test_cios_edges () =
  let zt = Alcotest.testable
      (fun fmt z -> Format.pp_print_string fmt (Z.to_string z))
      Z.equal
  in
  let window = Alcotest.(list int) in
  let words (w : Montgomery.window) = Array.copy (w :> int array) in
  let check_ctx name m =
    let ctx = Montgomery.create m in
    let residues =
      List.filter (fun r -> Z.lt r m)
        [ Z.zero; Z.one; Z.two; Z.pred m; Z.shift_right m 1;
          Z.erem (Z.of_string "123456789123456789123456789") m ]
    in
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            let am = Montgomery.to_window ctx a
            and bm = Montgomery.to_window ctx b in
            Alcotest.check zt
              (Printf.sprintf "%s mul %s*%s" name (Z.to_string a) (Z.to_string b))
              (Z.erem (Z.mul a b) m)
              (Montgomery.of_window ctx (Montgomery.mul_window ctx am bm));
            (* aliased destination: dst == a, then dst == b *)
            let expect = Array.to_list (words (Montgomery.mul_window ctx am bm)) in
            let aw = words am and bw = words bm in
            Montgomery.mont_mul_into ctx aw aw bw;
            Alcotest.check window
              (Printf.sprintf "%s alias dst=a" name)
              expect (Array.to_list aw);
            let aw = words am in
            Montgomery.mont_mul_into ctx bw aw bw;
            Alcotest.check window
              (Printf.sprintf "%s alias dst=b" name)
              expect (Array.to_list bw))
          residues;
        let am = Montgomery.to_window ctx a in
        (* the dedicated squaring path is byte-identical to the fused
           multiply by itself, and correct at the Z level *)
        Alcotest.check window
          (Printf.sprintf "%s sqr %s" name (Z.to_string a))
          (Array.to_list (words (Montgomery.mul_window ctx am am)))
          (Array.to_list (words (Montgomery.sqr_window ctx am)));
        Alcotest.check zt
          (Printf.sprintf "%s sqr value %s" name (Z.to_string a))
          (Z.erem (Z.mul a a) m)
          (Montgomery.of_window ctx (Montgomery.sqr_window ctx am));
        let aw = words am in
        Montgomery.mont_sqr_into ctx aw aw;
        Alcotest.check window
          (Printf.sprintf "%s sqr alias" name)
          (Array.to_list (words (Montgomery.sqr_window ctx am)))
          (Array.to_list aw))
      residues;
    (* the engine and its oracle agree on x^0 = 1 mod n, even in the
       trivial ring n = 1 *)
    Alcotest.check zt (name ^ " powm e=0 = naive")
      (Z.mod_pow_naive (Z.of_int 7) Z.zero m)
      (Montgomery.powm ctx (Z.of_int 7) Z.zero)
  in
  check_ctx "n=1" Z.one;
  check_ctx "n=3" (Z.of_int 3);
  check_ctx "one-limb" (Z.of_int ((1 lsl 26) - 5));
  check_ctx "two-limb" (Z.of_string "4611686018427387847");
  check_ctx "schnorr-like"
    (Z.pred (Z.shift_left Z.one 1024));  (* odd, 40 limbs *)
  check_ctx "deployment-N-like"
    (Z.sub (Z.shift_left Z.one 1330) (Z.of_int 27))  (* odd, 52 limbs *)

let test_wexp_edges () =
  (* Exponent 0: empty schedule, executed as 1 mod m. *)
  let s0 = Wexp.recode Nat.zero in
  Alcotest.(check int) "e=0 first" 0 s0.Wexp.first;
  Alcotest.(check int) "e=0 cost" 0 (Wexp.cost s0);
  Alcotest.check z "e=0 replay" Z.zero (Wexp.to_exponent s0);
  let m = Z.of_string "100000000000000000763" in
  let ctx = Montgomery.create m in
  Alcotest.check z "powm e=0" Z.one (Montgomery.powm ctx (Z.of_int 7) Z.zero);
  Alcotest.check z "powm e=1" (Z.of_int 7)
    (Montgomery.powm ctx (Z.of_int 7) Z.one);
  (* Long zero runs: 2^k and 2^k + 1 at every width. *)
  List.iter
    (fun width ->
      List.iter
        (fun k ->
          let e = Z.pow Z.two k in
          List.iter
            (fun e ->
              let s = Wexp.recode ~width (Z.to_nat e) in
              Alcotest.check z
                (Printf.sprintf "replay w=%d k=%d" width k)
                e (Wexp.to_exponent s);
              Alcotest.check z
                (Printf.sprintf "powm_sched w=%d k=%d" width k)
                (Z.mod_pow_naive (Z.of_int 3) e m)
                (Montgomery.powm_sched ctx (Z.of_int 3) s))
            [ e; Z.succ e ])
        [ 1; 7; 26; 27; 100 ])
    [ 1; 2; 3; 4; 5; 6; 7 ]

(* Odd moduli for the stage-1 kernel crosschecks: engine widths on both
   sides of the Montgomery window's even-[k_limbs] padding (a 67-bit
   modulus is 3 digits of 29 bits padded to 4, 145 bits is 5 -> 6, 174
   bits is 6 unpadded, 203 bits is 7 -> 8) and the 256-, 512- and
   1024-bit Schnorr group moduli (9 -> 10, 18 and 36 digits). *)
let stage1_moduli =
  let odd_of_bits bits = Z.add (Z.pow Z.two (bits - 1)) (Z.of_int 12345) in
  [ Z.of_string "100000000000000000763"; odd_of_bits 145; odd_of_bits 174;
    odd_of_bits 203;
    Lbq_group.Schnorr.p (Lbq_group.Schnorr.test_group ());
    Lbq_group.Schnorr.p (Lbq_group.Schnorr.mid_group ());
    Lbq_group.Schnorr.p (Lbq_group.Schnorr.paper_group ()) ]

(* A random odd modulus of exactly [bits] bits (bits >= 2). *)
let gen_odd_modulus bits =
  QCheck.Gen.map
    (fun z ->
      let top = Z.shift_left Z.one (bits - 1) in
      let m = Z.add top (Z.erem z top) in
      if Z.is_even m then Z.succ m else m)
    (gen_z_of_size (QCheck.Gen.return ((bits + 7) / 8)))

(* An operand, and odd moduli covering every Montgomery window width:
   n = 1, n = 3, and for each even ke from 4 to 74 one random modulus
   whose window is ke digits (2..116 bits for ke = 4, else
   29(ke-2)+1..29ke bits, up to 2146).  [create]'s R^2 mod n depends on
   ke, and a wrong one breaks of_window (to_window a) = a mod n. *)
let arb_window_moduli =
  let gen =
    QCheck.Gen.(
      pair gen_huge
        (map
           (fun ms -> Z.one :: Z.of_int 3 :: ms)
           (flatten_l
              (List.init 36 (fun i ->
                   let ke = 4 + (2 * i) in
                   let lo = if ke = 4 then 2 else (29 * (ke - 2)) + 1 in
                   int_range lo (29 * ke) >>= gen_odd_modulus)))))
  in
  QCheck.make gen ~print:(fun (a, ms) ->
      String.concat ", " (List.map Z.to_string (a :: ms)))

(* Odd moduli where a limb count steps: the trivial ring, n = 3, and
   2^b - 1 and 2^(b-1) + 1 at b = 26k (the reference ladder's Nat limbs)
   and b = 29k (the fused engine's digits). *)
let limb_boundary_moduli =
  Z.one :: Z.of_int 3
  :: List.concat_map
       (fun b ->
         [ Z.pred (Z.shift_left Z.one b); Z.succ (Z.shift_left Z.one (b - 1)) ])
       [ 26; 29; 52; 58; 87; 104; 116; 1014; 1015 ]

(* b1^e1 * b2^e2 through the Straus kernel, both tables built here. *)
let powm2 ctx b1 e1 b2 e2 =
  let ws1 = Wexp.windows (Z.to_nat e1) and ws2 = Wexp.windows (Z.to_nat e2) in
  let tbl b ws = Montgomery.odd_powers ctx b ~max_odd:(Wexp.windows_max_odd ws) in
  Montgomery.powm2_tbl ctx (tbl b1 ws1) ws1 (tbl b2 ws2) ws2

let test_comb_straus_edges () =
  (* Every Montgomery stage-1 kernel against Z.mod_pow_naive, which
     shares no code with the engine, with ticks against the closed
     forms. *)
  List.iter
    (fun m ->
      let ctx = Montgomery.create m in
      let bits = Z.numbits m in
      let label what = Printf.sprintf "%s (%d bits, %d digits)" what bits
          (Montgomery.k_limbs ctx) in
      let qlike = Z.pred m in
      let b3 = Z.pred (Z.pred m) in
      let edges =
        [ Z.zero; Z.one; Z.two; Z.pow Z.two 26; Z.succ (Z.pow Z.two 40);
          qlike ]
      in
      (* Edge exponents 0, 1, 2^k, and a q-1 analogue, across tooth
         counts. *)
      List.iter
        (fun teeth ->
          let comb = Wexp.make_comb ~bits:(Z.numbits qlike) ~teeth in
          let r = ref 0 in
          let fb =
            Montgomery.counting ctx r (fun () ->
                Montgomery.fixed_base ctx b3 comb)
          in
          Alcotest.(check int)
            (label (Printf.sprintf "comb table cost t=%d" teeth))
            (Wexp.comb_table_cost comb + 1) !r;
          List.iter
            (fun e ->
              let en = Z.to_nat e in
              Alcotest.check z
                (Printf.sprintf "comb digits replay t=%d" teeth)
                e
                (Wexp.comb_to_exponent comb (Wexp.comb_digits comb en));
              let r = ref 0 in
              let v =
                Montgomery.counting ctx r (fun () ->
                    Montgomery.powm_fixed_base ctx fb en)
              in
              Alcotest.check z
                (label (Printf.sprintf "comb powm t=%d" teeth))
                (Z.mod_pow_naive b3 e m) v;
              Alcotest.(check int)
                (label (Printf.sprintf "comb cost t=%d" teeth))
                (Wexp.comb_cost comb en) !r)
            edges)
        [ 1; 2; 3; 5; 8 ];
      (* Odd-powers table replay at every window width. *)
      List.iter
        (fun width ->
          let max_odd = (1 lsl width) - 1 in
          let r = ref 0 in
          let tbl =
            Montgomery.counting ctx r (fun () ->
                Montgomery.odd_powers ctx b3 ~max_odd)
          in
          Alcotest.(check int) (label "table cost")
            (Wexp.table_cost ~max_odd + 1) !r;
          List.iter
            (fun e ->
              let s = Wexp.recode ~width (Z.to_nat e) in
              let r = ref 0 in
              let v =
                Montgomery.counting ctx r (fun () ->
                    Montgomery.powm_tbl ctx tbl s)
              in
              Alcotest.check z (label (Printf.sprintf "replay w=%d" width))
                (Z.mod_pow_naive b3 e m) v;
              Alcotest.(check int) (label "replay cost") (Wexp.replay_cost s)
                !r)
            edges)
        [ 1; 3; 5; 7 ];
      (* Straus two-stream edges, including zero streams on either
         side. *)
      List.iter
        (fun (e1, e2) ->
          let expect =
            Z.erem
              (Z.mul (Z.mod_pow_naive (Z.of_int 3) e1 m)
                 (Z.mod_pow_naive b3 e2 m))
              m
          in
          Alcotest.check z (label "powm2 edge") expect
            (powm2 ctx (Z.of_int 3) e1 b3 e2))
        [ (Z.zero, Z.zero); (Z.zero, qlike); (qlike, Z.zero); (Z.one, Z.one);
          (qlike, qlike); (Z.one, qlike) ])
    stage1_moduli

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

let prop name count arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let props =
  [ prop "add agrees with int" 500 arb_small_pair (fun (a, b) ->
        Z.to_int (Z.add (Z.of_int a) (Z.of_int b)) = a + b);
    prop "mul agrees with int" 500 arb_small_pair (fun (a, b) ->
        Z.to_int (Z.mul (Z.of_int a) (Z.of_int b)) = a * b);
    prop "div/rem agree with int" 500 arb_small_pair (fun (a, b) ->
        QCheck.assume (b <> 0);
        let q, r = Z.div_rem (Z.of_int a) (Z.of_int b) in
        Z.to_int q = a / b && Z.to_int r = a mod b);
    prop "add commutative" 300 arb_pair (fun (a, b) ->
        Z.equal (Z.add a b) (Z.add b a));
    prop "mul commutative" 300 arb_pair (fun (a, b) ->
        Z.equal (Z.mul a b) (Z.mul b a));
    prop "add associative" 300
      (QCheck.make QCheck.Gen.(triple gen_signed gen_signed gen_signed))
      (fun (a, b, c) ->
        Z.equal (Z.add a (Z.add b c)) (Z.add (Z.add a b) c));
    prop "distributivity" 300
      (QCheck.make QCheck.Gen.(triple gen_signed gen_signed gen_signed))
      (fun (a, b, c) ->
        Z.equal (Z.mul a (Z.add b c)) (Z.add (Z.mul a b) (Z.mul a c)));
    prop "sub inverse of add" 300 arb_pair (fun (a, b) ->
        Z.equal a (Z.sub (Z.add a b) b));
    prop "divmod invariant" 500 arb_pair (fun (a, b) ->
        QCheck.assume (not (Z.is_zero b));
        let q, r = Z.div_rem a b in
        Z.equal a (Z.add (Z.mul q b) r)
        && Z.lt (Z.abs r) (Z.abs b)
        && (Z.is_zero r || Z.sign r = Z.sign a));
    prop "divmod matches reference" 200 arb_pair (fun (a, b) ->
        QCheck.assume (not (Z.is_zero b));
        let q, r = Z.div_rem a b in
        let q', r' = ref_divmod a b in
        Z.equal q q' && Z.equal r r');
    prop "erem in range" 300 arb_pair (fun (a, b) ->
        QCheck.assume (not (Z.is_zero b));
        let r = Z.erem a b in
        Z.sign r >= 0 && Z.lt r (Z.abs b)
        && Z.equal a (Z.add (Z.mul (Z.ediv a b) b) r));
    prop "string roundtrip" 200 arb_signed (fun a ->
        Z.equal a (Z.of_string (Z.to_string a)));
    prop "bytes roundtrip" 200 arb_big (fun a ->
        Z.equal a (Z.of_bytes_be (Z.to_bytes_be a)));
    prop "hex roundtrip" 200 arb_big (fun a ->
        Z.equal a (Z.of_hex (Z.to_hex a)));
    prop "shift_left = mul 2^n" 200
      (QCheck.make QCheck.Gen.(pair gen_signed (int_bound 200)))
      (fun (a, n) -> Z.equal (Z.shift_left a n) (Z.mul a (Z.pow Z.two n)));
    prop "shift_right floor" 200
      (QCheck.make QCheck.Gen.(pair gen_signed (int_bound 200)))
      (fun (a, n) ->
        Z.equal (Z.shift_right a n) (Z.ediv a (Z.pow Z.two n)));
    prop "compare antisymmetric" 300 arb_pair (fun (a, b) ->
        Z.compare a b = - (Z.compare b a));
    prop "gcd divides" 200 arb_pair (fun (a, b) ->
        QCheck.assume (not (Z.is_zero a) || not (Z.is_zero b));
        let g = Z.gcd a b in
        Z.sign g > 0
        && Z.is_zero (Z.rem a g) && Z.is_zero (Z.rem b g));
    prop "bezout identity" 200 arb_pair (fun (a, b) ->
        let g, u, v = Z.gcdext a b in
        Z.equal g (Z.add (Z.mul u a) (Z.mul v b)));
    prop "invert works mod odd prime" 100 arb_big (fun a ->
        let p = Z.of_string "57896044618658097711785492504343953926634992332820282019728792003956564819949" in
        let a = Z.erem a p in
        QCheck.assume (not (Z.is_zero a));
        Z.equal Z.one (Z.erem (Z.mul a (Z.invert a p)) p));
    prop "montgomery powm = naive" 40
      (QCheck.make QCheck.Gen.(triple gen_big gen_big gen_big))
      (fun (b_, e, m) ->
        QCheck.assume (Z.gt m Z.one);
        let m = if Z.is_even m then Z.succ m else m in
        let ctx = Montgomery.create m in
        Z.equal (Montgomery.powm ctx b_ e) (Z.mod_pow_naive b_ e m));
    (* two engines on one odd modulus: the fused powm against the
       radix-2^26 reference ladder, which shares none of its REDC code *)
    prop "powm = reference ladder, odd moduli" 60
      (QCheck.make QCheck.Gen.(triple gen_big gen_big gen_big))
      (fun (b_, e, m) ->
        QCheck.assume (Z.gt m Z.one);
        let e = Z.abs e in
        let m = if Z.is_even m then Z.succ m else m in
        let ctx = Montgomery.create m in
        Z.equal (Montgomery.powm ctx b_ e)
          (Mont_ladder.powm_sched (Mont_ladder.create m) b_
             (Wexp.recode (Z.to_nat e))));
    prop "montgomery mulmod = erem" 100 arb_pair (fun (a, b) ->
        let m = Z.of_string "170141183460469231731687303715884105727" in
        let ctx = Montgomery.create m in
        Z.equal (Montgomery.mulmod ctx a b) (Z.erem (Z.mul a b) m));
    prop "cios mont_mul/mont_sqr correct, sqr = mul" 80
      (QCheck.make QCheck.Gen.(triple gen_huge gen_huge gen_huge))
      (fun (a, b, m) ->
        QCheck.assume (Z.gt m Z.one);
        let m = if Z.is_even m then Z.succ m else m in
        let ctx = Montgomery.create m in
        let am = Montgomery.to_window ctx a
        and bm = Montgomery.to_window ctx b in
        (* fused product correct at the Z level, and the dedicated
           squaring path byte-identical to the fused multiply *)
        Z.equal
          (Montgomery.of_window ctx (Montgomery.mul_window ctx am bm))
          (Z.erem (Z.mul a b) m)
        && Montgomery.sqr_window ctx am = Montgomery.mul_window ctx am am
        && Z.equal
             (Montgomery.of_window ctx (Montgomery.sqr_window ctx am))
             (Z.erem (Z.mul a a) m));
    (* each case also runs its base and exponent on the limb-boundary
       moduli, where either engine's limb count steps *)
    prop "cios powm_sched = reference ladder" 40
      (QCheck.make QCheck.Gen.(triple gen_huge gen_big gen_huge))
      (fun (b_, e, m) ->
        QCheck.assume (Z.gt m Z.one);
        let e = Z.abs e in
        let m = if Z.is_even m then Z.succ m else m in
        let s = Wexp.recode (Z.to_nat e) in
        let agree m =
          let ctx = Montgomery.create m and oracle = Mont_ladder.create m in
          let r = ref 0 in
          let v_new = Montgomery.counting ctx r (fun () ->
              Montgomery.powm_sched ctx b_ s)
          in
          let v_old = Mont_ladder.powm_sched oracle b_ s in
          Z.equal v_new v_old && !r = Mont_ladder.ticks oracle
          && (Z.is_zero e || !r = Wexp.cost s + 1)
        in
        agree m && List.for_all agree limb_boundary_moduli);
    prop "powm_sched_batch = k independent powm_sched" 25
      (QCheck.make
         QCheck.Gen.(pair gen_big
                       (list_size (int_range 0 6) (pair gen_huge gen_huge))))
      (fun (e, qs) ->
        let e = Z.abs e in
        let s = Wexp.recode (Z.to_nat e) in
        (* k contexts with distinct odd moduli (different limb widths)
           sharing one recoded schedule: the interleaved kernel must
           reproduce each context's own powm_sched value AND its exact
           per-context multiplication count. *)
        let qs =
          List.map
            (fun (b_, m) ->
              let m = if Z.is_even m then Z.succ m else m in
              QCheck.assume (Z.gt m Z.one);
              b_, m)
            qs
        in
        let ctxs =
          Array.of_list (List.map (fun (_, m) -> Montgomery.create m) qs)
        in
        let bases = Array.of_list (List.map fst qs) in
        let batch_ticks = Array.map (fun _ -> ref 0) ctxs in
        Array.iteri
          (fun i ctx -> Montgomery.set_counter ctx (Some batch_ticks.(i)))
          ctxs;
        let batch = Montgomery.powm_sched_batch ctxs bases s in
        Array.iter (fun ctx -> Montgomery.set_counter ctx None) ctxs;
        Array.length batch = Array.length ctxs
        && Array.for_all Fun.id
             (Array.mapi
                (fun i ctx ->
                  let r = ref 0 in
                  let solo =
                    Montgomery.counting ctx r (fun () ->
                        Montgomery.powm_sched ctx bases.(i) s)
                  in
                  Z.equal batch.(i) solo && !(batch_ticks.(i)) = !r)
                ctxs));
    prop "toom3 mul = schoolbook (random huge)" 30
      (QCheck.make QCheck.Gen.(pair gen_huge gen_huge))
      (fun (a, b) ->
        let an = Z.to_nat (Z.abs a) and bn = Z.to_nat (Z.abs b) in
        Nat.equal (Nat.mul an bn) (Nat.mul_schoolbook an bn)
        && Nat.equal (Nat.sqr an) (Nat.mul_schoolbook an an));
    prop "montgomery roundtrip" 100 arb_window_moduli (fun (a, ms) ->
        List.for_all
          (fun m ->
            let ctx = Montgomery.create m in
            Z.equal (Z.erem a m)
              (Montgomery.of_window ctx (Montgomery.to_window ctx a)))
          ms);
    prop "nat sqr = mul a a" 300 arb_big (fun a ->
        let a = Z.to_nat (Z.abs a) in
        Nat.equal (Nat.mul a a) (Nat.sqr a));
    prop "wexp recode replays the exponent" 300
      (QCheck.make QCheck.Gen.(pair gen_big (int_range 1 7)))
      (fun (e, width) ->
        let e = Z.abs e in
        Z.equal e (Wexp.to_exponent (Wexp.recode ~width (Z.to_nat e))));
    prop "sliding powm = naive at every width" 60
      (QCheck.make
         QCheck.Gen.(quad gen_big gen_big gen_big (int_range 1 7)))
      (fun (b_, e, m, width) ->
        QCheck.assume (Z.gt m Z.one);
        let e = Z.abs e in
        let m = if Z.is_even m then Z.succ m else m in
        let ctx = Montgomery.create m in
        let s = Wexp.recode ~width (Z.to_nat e) in
        Z.equal (Montgomery.powm_sched ctx b_ s) (Z.mod_pow_naive b_ e m));
    prop "comb digits replay the exponent" 300
      (QCheck.make QCheck.Gen.(pair gen_big (int_range 1 10)))
      (fun (e, teeth) ->
        let e = Z.abs e in
        let comb = Wexp.make_comb ~bits:(max 1 (Z.numbits e)) ~teeth in
        Z.equal e
          (Wexp.comb_to_exponent comb (Wexp.comb_digits comb (Z.to_nat e))));
    prop "fixed-base comb powm = naive" 60
      (QCheck.make
         QCheck.Gen.(quad gen_big gen_big gen_big (int_range 1 8)))
      (fun (b_, e, m, teeth) ->
        QCheck.assume (Z.gt m Z.one);
        let m = if Z.is_even m then Z.succ m else m in
        let e = Z.abs e in
        let ctx = Montgomery.create m in
        let comb = Wexp.make_comb ~bits:(max 1 (Z.numbits e)) ~teeth in
        let fb = Montgomery.fixed_base ctx b_ comb in
        let v = Montgomery.powm_fixed_base ctx fb (Z.to_nat e) in
        Z.equal v (Z.mod_pow_naive b_ e m));
    prop "comb engine cost = closed form" 100
      (QCheck.make QCheck.Gen.(pair gen_big (int_range 1 8)))
      (fun (e, teeth) ->
        let m = Z.of_string "100000000000000000763" in
        let ctx = Montgomery.create m in
        let e = Z.abs e in
        let comb = Wexp.make_comb ~bits:(max 1 (Z.numbits e)) ~teeth in
        let r = ref 0 in
        let fb =
          Montgomery.counting ctx r (fun () ->
              Montgomery.fixed_base ctx (Z.of_int 3) comb)
        in
        let build_ok = !r = Wexp.comb_table_cost comb + 1 in
        let r = ref 0 in
        ignore
          (Montgomery.counting ctx r (fun () ->
               Montgomery.powm_fixed_base ctx fb (Z.to_nat e)));
        build_ok && !r = Wexp.comb_cost comb (Z.to_nat e));
    prop "windows replay the exponent" 300
      (QCheck.make QCheck.Gen.(pair gen_big (int_range 1 7)))
      (fun (e, width) ->
        let e = Z.abs e in
        Z.equal e
          (Wexp.windows_to_exponent (Wexp.windows ~width (Z.to_nat e))));
    prop "straus powm2 = two naive powms" 60
      (QCheck.make
         QCheck.Gen.(
           pair (triple gen_big gen_big gen_big) (pair gen_big gen_big)))
      (fun ((b1, e1, m), (b2, e2)) ->
        QCheck.assume (Z.gt m Z.one);
        let m = if Z.is_even m then Z.succ m else m in
        let e1 = Z.abs e1 and e2 = Z.abs e2 in
        let v = powm2 (Montgomery.create m) b1 e1 b2 e2 in
        Z.equal v
          (Z.erem
             (Z.mul (Z.mod_pow_naive b1 e1 m) (Z.mod_pow_naive b2 e2 m))
             m));
    prop "straus ladder cost = closed form" 60
      (QCheck.make QCheck.Gen.(triple gen_big gen_big gen_big))
      (fun (b1, e1, e2) ->
        let m = Z.of_string "100000000000000000763" in
        let ctx = Montgomery.create m in
        let b2 = Z.succ b1 in
        let e1 = Z.abs e1 and e2 = Z.abs e2 in
        let ws1 = Wexp.windows (Z.to_nat e1)
        and ws2 = Wexp.windows (Z.to_nat e2) in
        let table b ws =
          let mo = Wexp.windows_max_odd ws in
          let r = ref 0 in
          let tbl =
            Montgomery.counting ctx r (fun () ->
                Montgomery.odd_powers ctx b ~max_odd:mo)
          in
          (tbl, !r = Wexp.table_cost ~max_odd:mo + 1)
        in
        let tbl1, ok1 = table b1 ws1 in
        let tbl2, ok2 = table b2 ws2 in
        let r = ref 0 in
        let v =
          Montgomery.counting ctx r (fun () ->
              Montgomery.powm2_tbl ctx tbl1 ws1 tbl2 ws2)
        in
        ok1 && ok2
        && !r = Wexp.straus_cost ws1 ws2
        && Z.equal v
             (Z.erem
                (Z.mul (Z.mod_pow_naive b1 e1 m) (Z.mod_pow_naive b2 e2 m))
                m));
    prop "table replay = sliding powm" 60
      (QCheck.make QCheck.Gen.(pair gen_big gen_big))
      (fun (b_, e) ->
        let m = Z.of_string "100000000000000000763" in
        let ctx = Montgomery.create m in
        let e = Z.abs e in
        let s = Wexp.recode (Z.to_nat e) in
        let tbl = Montgomery.odd_powers ctx b_ ~max_odd:s.Wexp.max_odd in
        let r = ref 0 in
        let v =
          Montgomery.counting ctx r (fun () -> Montgomery.powm_tbl ctx tbl s)
        in
        !r = Wexp.replay_cost s
        && Z.equal v (Z.mod_pow_naive b_ e m));
    prop "stage-1 kernels = naive powm at group widths" 30
      (QCheck.make
         QCheck.Gen.(
           pair (int_range 0 (List.length stage1_moduli - 1))
             (quad gen_huge gen_huge gen_huge (int_range 1 8))))
      (fun (mi, (b_, e1, e2, teeth)) ->
        (* Full-width operands on every modulus of [stage1_moduli], so
           the padded and unpadded engine windows both see random
           residues; exponents are reduced below the modulus the way
           the group reduces them below q. *)
        let m = List.nth stage1_moduli mi in
        let e1 = Z.erem e1 m and e2 = Z.erem e2 m in
        let ctx = Montgomery.create m in
        let b2 = Z.succ b_ in
        let want1 = Z.mod_pow_naive b_ e1 m in
        let comb = Wexp.make_comb ~bits:(Z.numbits m) ~teeth in
        let fb = Montgomery.fixed_base ctx b_ comb in
        let s = Wexp.recode (Z.to_nat e1) in
        let tbl = Montgomery.odd_powers ctx b_ ~max_odd:s.Wexp.max_odd in
        Z.equal want1 (Montgomery.powm_fixed_base ctx fb (Z.to_nat e1))
        && Z.equal want1 (Montgomery.powm_tbl ctx tbl s)
        && Z.equal
             (Z.erem (Z.mul want1 (Z.mod_pow_naive b2 e2 m)) m)
             (powm2 ctx b_ e1 b2 e2));
    prop "random_below in range" 100
      (QCheck.make QCheck.Gen.(pair gen_big (int_range 0 1000000)))
      (fun (seed, salt) ->
        ignore seed;
        let st = Random.State.make [| salt |] in
        let rand n = String.init n (fun _ -> Char.chr (Random.State.int st 256)) in
        let bound = Z.add (Z.of_int (salt + 2)) (Z.pow Z.two (salt mod 64)) in
        let r = Z.random_below ~bound rand in
        Z.sign r >= 0 && Z.lt r bound);
  ]

let () =
  Alcotest.run "lbq_bignum"
    [ ("units",
       [ Alcotest.test_case "int roundtrip" `Quick test_int_roundtrip;
         Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
         Alcotest.test_case "hex" `Quick test_hex;
         Alcotest.test_case "bytes" `Quick test_bytes;
         Alcotest.test_case "division exceptions" `Quick test_div_exceptions;
         Alcotest.test_case "pow" `Quick test_pow;
         Alcotest.test_case "knuth adversarial" `Quick test_knuth_adversarial;
         Alcotest.test_case "shift" `Quick test_shift;
         Alcotest.test_case "numbits" `Quick test_numbits;
         Alcotest.test_case "sqr shapes" `Quick test_sqr_shapes;
         Alcotest.test_case "mul ladder (toom3 boundaries)" `Quick test_mul_ladder;
         Alcotest.test_case "cios edges (alias/zero/n=1)" `Quick test_cios_edges;
         Alcotest.test_case "wexp edges" `Quick test_wexp_edges;
         Alcotest.test_case "comb/straus edges" `Quick test_comb_straus_edges ]);
      ("properties", props) ]
