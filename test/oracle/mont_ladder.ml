(* The Montgomery ladder the fused CIOS engine replaced, kept as its
   oracle: full Nat product, then a limb-by-limb REDC sweep. *)

open Lbq_bignum

type t = {
  modulus : Z.t;
  n : Nat.t;          (* the modulus, exactly k limbs, odd *)
  k : int;
  n' : int;           (* -n^{-1} mod B *)
  r2 : Nat.t;         (* R^2 mod n *)
  one_m : Nat.t;      (* R mod n: the Montgomery form of 1 *)
  mutable ticks : int;
}

let create (modulus : Z.t) : t =
  if Z.sign modulus <= 0 || Z.is_even modulus then
    invalid_arg "Mont_ladder.create: modulus must be odd and positive";
  let n = Z.to_nat modulus in
  let k = Array.length n in
  let b = Z.shift_left Z.one Nat.limb_bits in
  let n' = Z.to_int (Z.erem (Z.neg (Z.invert (Z.of_int n.(0)) b)) b) in
  let r = Z.shift_left Z.one (k * Nat.limb_bits) in
  { modulus; n; k; n';
    r2 = Z.to_nat (Z.erem (Z.mul r r) modulus);
    one_m = Z.to_nat (Z.erem r modulus);
    ticks = 0 }

let ticks t = t.ticks

(* REDC(T) = T * R^{-1} mod n for T < n * R. *)
let redc t (tt : Nat.t) : Nat.t =
  let buf = Array.make ((2 * t.k) + 1) 0 in
  Array.blit tt 0 buf 0 (Array.length tt);
  for i = 0 to t.k - 1 do
    let m = (buf.(i) * t.n') land Nat.mask in
    Nat.addmul_1 buf i t.n m
    (* buf.(i) is now 0 mod B *)
  done;
  let hi = Nat.normalize (Array.sub buf t.k (t.k + 1)) in
  if Nat.compare hi t.n >= 0 then Nat.sub hi t.n else hi

let mont_mul t a b =
  t.ticks <- t.ticks + 1;
  redc t (Nat.mul a b)

let mont_sqr t a =
  t.ticks <- t.ticks + 1;
  redc t (Nat.sqr a)

let to_mont t (x : Z.t) : Nat.t = mont_mul t (Z.to_nat (Z.erem x t.modulus)) t.r2

let of_mont t (a : Nat.t) : Z.t = Z.of_nat (redc t a)

let powm_sched t (base_ : Z.t) (s : Wexp.t) : Z.t =
  if s.Wexp.first = 0 then of_mont t t.one_m
  else begin
    let bm = to_mont t base_ in
    let tbl = Array.make (((s.Wexp.max_odd - 1) / 2) + 1) bm in
    if s.Wexp.max_odd >= 3 then begin
      let b2 = mont_sqr t bm in
      for j = 1 to (s.Wexp.max_odd - 1) / 2 do
        tbl.(j) <- mont_mul t tbl.(j - 1) b2
      done
    end;
    let r = ref tbl.(s.Wexp.first lsr 1) in
    let square n =
      for _ = 1 to n do
        r := mont_sqr t !r
      done
    in
    Wexp.iter s ~square ~multiply:(fun v -> r := mont_mul t !r tbl.(v lsr 1));
    of_mont t !r
  end
