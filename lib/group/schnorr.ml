(* Schnorr groups: the prime-order subgroup of F_p* used by the ElGamal
   oblivious transfer.  The paper fixes |p| = 1024, |q| = 160 with
   q | (p - 1), g of order q, and publishes (G, g, p, q) to all parties
   (§II-A, §VI-A). *)

open Lbq_bignum
open Lbq_numth

type t = {
  p : Z.t;            (* field modulus, prime *)
  q : Z.t;            (* subgroup order, prime, q | p - 1 *)
  g : Z.t;            (* generator of the order-q subgroup *)
  mont : Montgomery.t;
    (* the engine for p (odd): every ladder, table and product below *)
  g_comb : Montgomery.fixed_base;
    (* Lim-Lee comb table for g, sized for exponents < q: every
       [pow_g] is ~q_bits/teeth squarings plus table lookups *)
  g_tbl : Montgomery.table;
    (* odd-powers table g^1, g^3, ..., for the Straus g-stream of
       [pow2_g_counted] *)
  g_width : int;      (* window width the cached tables cover *)
}

let p t = t.p
let q t = t.q
let g t = t.g

let p_bits t = Z.numbits t.p
let q_bits t = Z.numbits t.q

(* Count the engine's modular multiplications over [f].  The context is
   shared by every user of the group, so single-threaded callers only. *)
let counting t r f = Montgomery.counting t.mont r f

(* Group operations in the subgroup.  A one-off product is two
   Montgomery sweeps and no conversion REDC. *)
let mul t a b = Montgomery.mulmod t.mont a b
let pow t base_ e = Montgomery.powm t.mont base_ (Z.erem e t.q)
let inv t a = Z.invert a t.p
let div t a b = mul t a (inv t b)

(* Exact multiplications of [mul]: see {!Montgomery.mulmod}. *)
let mul_cost = 2

(* Fixed-base fast path: all tables were built at group construction, so
   one generator exponentiation is just a comb ladder. *)
let pow_g t e =
  Montgomery.powm_fixed_base t.mont t.g_comb (Z.to_nat (Z.erem e t.q))

(* Exact multiplication count of [pow_g t e] (closed-form oracle). *)
let pow_g_cost t e =
  Wexp.comb_cost (Montgomery.fixed_base_comb t.g_comb)
    (Z.to_nat (Z.erem e t.q))

(* g^e1 * b2^e2 on one Straus/Shamir ladder: the g-stream replays the
   cached odd-powers table, the b2-stream builds its own (one entry
   conversion plus the table).  Cost = that table + one shared squaring
   ladder + window taps.  Also returns the exact multiplication count
   (pure window combinatorics — independent of the engine's tick
   counter, so the two can be asserted against each other). *)
let pow2_g_counted t e1 b2 e2 =
  let ws1 = Wexp.windows ~width:t.g_width (Z.to_nat (Z.erem e1 t.q)) in
  let ws2 = Wexp.windows (Z.to_nat (Z.erem e2 t.q)) in
  let max_odd2 = Wexp.windows_max_odd ws2 in
  let tbl2 = Montgomery.odd_powers t.mont b2 ~max_odd:max_odd2 in
  ( Montgomery.powm2_tbl t.mont t.g_tbl ws1 tbl2 ws2,
    1 + Wexp.table_cost ~max_odd:max_odd2 + Wexp.straus_cost ws1 ws2 )

(* Exact multiplication count of [pow2_g_counted t e1 _ e2]: the base b2
   does not affect the count, only its window stream's table. *)
let pow2_g_cost t e1 e2 =
  let ws1 = Wexp.windows ~width:t.g_width (Z.to_nat (Z.erem e1 t.q)) in
  let ws2 = Wexp.windows (Z.to_nat (Z.erem e2 t.q)) in
  1 + Wexp.table_cost ~max_odd:(Wexp.windows_max_odd ws2)
  + Wexp.straus_cost ws1 ws2

(* Per-query fixed-base material: a full Lim-Lee comb for an arbitrary
   group element, with the same geometry as the cached generator comb
   (sized for exponents < q).  Each exponentiation is ~q_bits/teeth
   squarings, which pays back the build once the same base is raised to
   several fresh exponents — exactly the OT server's per-axis c.a. *)
type base_comb = Montgomery.fixed_base

let base_comb t b =
  Montgomery.fixed_base t.mont b (Montgomery.fixed_base_comb t.g_comb)

(* One-time multiplications of [base_comb]: the entry conversion plus
   the comb table build. *)
let base_comb_cost t =
  1 + Wexp.comb_table_cost (Montgomery.fixed_base_comb t.g_comb)

let pow_comb_counted t fb e =
  let en = Z.to_nat (Z.erem e t.q) in
  ( Montgomery.powm_fixed_base t.mont fb en,
    Wexp.comb_cost (Montgomery.fixed_base_comb fb) en )

let pow_comb t fb e = fst (pow_comb_counted t fb e)

(* Membership check: x in [1, p) and x^q = 1. *)
let mem_in mont ~p ~q x =
  Z.sign x > 0 && Z.lt x p && Z.equal (Montgomery.powm mont x q) Z.one

let mem t x = mem_in t.mont ~p:t.p ~q:t.q x

(* Build the cached generator tables.  Eager (at group construction)
   rather than lazy so group values can be shared across domains without
   racy memoisation: the only mutable state a group holds is the
   engine's counter hook. *)
let precompute ~p ~q ~g mont =
  let qb = Z.numbits q in
  let comb = Wexp.make_comb ~bits:qb ~teeth:(Wexp.teeth_for qb) in
  let w = Wexp.width_for qb in
  {
    p;
    q;
    g;
    mont;
    g_comb = Montgomery.fixed_base mont g comb;
    g_tbl = Montgomery.odd_powers mont g ~max_odd:((1 lsl w) - 1);
    g_width = w;
  }

let of_params ~p ~q ~g =
  if Z.leq p Z.two || Z.is_even p then
    invalid_arg "Schnorr.of_params: p must be an odd prime";
  let mont = Montgomery.create p in
  if not (Z.is_zero (Z.erem (Z.pred p) q)) then
    invalid_arg "Schnorr.of_params: q does not divide p - 1";
  if not (mem_in mont ~p ~q g) || Z.equal g Z.one then
    invalid_arg "Schnorr.of_params: g does not generate the order-q subgroup";
  precompute ~p ~q ~g mont

(* Generate a fresh group: prime q, prime p = 2kq + 1, and g = a^((p-1)/q)
   for the first a making g <> 1 (the paper finds a generator a and sets
   g = a^((p-1)/q) too, §VI-A). *)
let generate ~p_bits ~q_bits rand =
  let q = Primegen.random_prime ~bits:q_bits rand in
  let _k, p = Primegen.schnorr_modulus ~p_bits ~q rand in
  let mont = Montgomery.create p in
  let cofactor = Z.div (Z.pred p) q in
  let rec find_g () =
    let a = Z.add Z.two (Z.random_below ~bound:(Z.sub p (Z.of_int 3)) rand) in
    let g = Montgomery.powm mont a cofactor in
    if Z.equal g Z.one then find_g () else g
  in
  let g = find_g () in
  precompute ~p ~q ~g mont

(* Pre-generated parameter sets (produced by [generate] with this library;
   fixed so tests and benches do not pay generation cost, exactly as the
   paper fixes parameters "for the duration of a round").  Validated by
   [of_params] on first use. *)

(* |p| = 1024, |q| = 160: the paper's experimental setting. *)
let paper_hex =
  ( "831b0b76abd387057c9e89893a4ac4b7a14ddeaea29d3b79d10fbd097b46f889357f5875ddb88937723ac46e389d0350005b9aa71445d1b2b7682d8b9a2cf4c6b981ebe940acbf60c94bcba616c550c2e4fe86e78ddb65542e64fb014b346a88cef6aad1dc8f561f0bf374fcdcd4286ba17ce531311a64a5eea79bfcd48ea253",
    "adb1eb3df61a7108efedc5c51979a1aa0a59436f",
    "431dd5110c83f14736a591925dfcc7db5bb3ee4463155dc739de2ed631e3742281da818d910d3ad7495d1701f52e1bf47bd4eabc664426cdf654f1821406f68b12c67bce27d04b4dc9aed76c3550b0ba8fb5e84de6ddb1b283787d8a30378b36577880b835f59ad6ff5e638f96fa8c5d1767ff42c4d5caa68d98e4d29280f12" )

(* |p| = 512, |q| = 160: the middle point of the security-parameter
   ablation bench. *)
let mid_hex =
  ( "be2726958a88e5a3debb566ba3063ce089ac91eec9ef2afb2afdae09571255d8d9164f0fe48e02c9510cab245710d67b261935752645263b68e9004b702ddce5",
    "98a68ef1084f75ec805d93018f048793d86de53b",
    "b55275d533afd0126cad3edcbdb415e965fd99f050b4bdc3ce8c1cdd66d1d92ab782e44b8129cffc917d4f8d9c51aabb88b8ffe86bfa28bc599e2e8eca6bdd48" )

(* |p| = 256, |q| = 160: small and fast, for unit tests. *)
let test_hex =
  ( "f79f6ef767dd062bbf56dfcd89fa8fb67a66268328305bfa09393c2132e61d29",
    "c906199e27e4b63ffcd19402ea1f9d2919a56a19",
    "b8c55d3b753e49d82373fbb93bcd2c9a5ba051e4b6b6588e93045b1206e60939" )

let of_hex (ph, qh, gh) =
  of_params ~p:(Z.of_hex ph) ~q:(Z.of_hex qh) ~g:(Z.of_hex gh)

let paper = lazy (of_hex paper_hex)
let mid = lazy (of_hex mid_hex)
let testing = lazy (of_hex test_hex)

let paper_group () = Lazy.force paper
let mid_group () = Lazy.force mid
let test_group () = Lazy.force testing
