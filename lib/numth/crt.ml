(* Chinese Remainder Theorem over pairwise-coprime moduli.  The PIR server
   encodes its whole database as the smallest e with e = C_i (mod pi_i). *)

open Lbq_bignum

(* Remainder-tree CRT (von zur Gathen-Gerhard Alg. 10.22; Bernstein's
   scaled remainder trees).  With M = prod pi_i and
   s_i = (M / pi_i)^{-1} mod pi_i, the answer is
     e = sum_i x_i * (M / pi_i)  mod M,   x_i = c_i * s_i mod pi_i.
   [build] finds every s_i without one inversion wider than a leaf, on
   a product tree of the pi_i that lives only as long as [build]:
   - M is reduced down the tree mod P_v^2 (P_v = product under node v),
     so leaf i holds M mod pi_i^2 = pi_i * ((M / pi_i) mod pi_i), and
     s_i is a leaf-width inversion of that quotient;
   - x_v = x_l * P_r + x_r * P_l is summed back up, then reduced mod M.
   Products pair operands of similar size, where the subquadratic
   {!Nat.mul} (Karatsuba/Toom) bites.  Every modulus is checked > 1
   before any arithmetic; then (M / pi_i) is invertible mod pi_i iff
   pi_i is coprime to every other modulus, so a failed leaf inversion
   is exactly a non-coprime pair.

   Only the per-leaf arrays, M and e outlive [build].  Changing residue
   i from c to c' moves e by d = (c' - c) * s_i mod pi_i cofactors,
     e <- e + d * (M / pi_i)   (mod M),
   and since both terms are below M, one conditional subtraction.  The
   result is the unique solution in [0, M), so it is byte-identical to
   a fresh solve.  The cofactor M / pi_i is one exact division, done on
   leaf i's first update and kept for the tree's lifetime as row i of
   one Bigarray, one 26-bit limb per int32 and |M| limbs per row: off
   the OCaml heap, whose major space overhead would double it, and
   n * |M| * 32/26 bits per tree at most, allocated on the tree's first
   update and left untouched, so not resident, until a row is filled.
   [build] fills no row (that would put n divisions into every server's
   set-up).  Every later update of the leaf is division-free: one fresh
   limb array holds a copy of e, takes d * cofactor and at most one
   subtraction of M in place, and becomes the new e. *)
module Tree = struct
  type limbs = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

  type t = {
    pis : Z.t array;  (* leaf moduli pi_i *)
    cs : Z.t array;  (* current residues, reduced mod pi_i *)
    ss : Z.t array;  (* s_i = (M / pi_i)^{-1} mod pi_i *)
    mutable rows : limbs;
      (* row i, from limb i * |M| on: M / pi_i; empty until an update *)
    row_len : int array;  (* limbs of row i; 0 until leaf i's first update *)
    m : Z.t;  (* M = prod pi_i *)
    mutable e : Z.t;  (* the solution, in [0, M) *)
  }

  let no_rows : limbs = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout 0

  type ptree = Leaf of int | Node of Z.t * ptree * ptree

  let build (congruences : (Z.t * Z.t) list) : t =
    let pis = Array.of_list (List.map snd congruences) in
    Array.iter
      (fun m -> if Z.leq m Z.one then invalid_arg "Crt.solve: modulus <= 1")
      pis;
    let cs = Array.of_list (List.map (fun (r, m) -> Z.erem r m) congruences) in
    let ss = Array.map (fun _ -> Z.zero) pis in
    let prod = function Leaf i -> pis.(i) | Node (p, _, _) -> p in
    let rec tree lo hi =
      if hi - lo = 1 then Leaf lo
      else begin
        let mid = (lo + hi) / 2 in
        let l = tree lo mid in
        let r = tree mid hi in
        Node (Z.mul (prod l) (prod r), l, r)
      end
    in
    (* [rem] is M mod P_v^2; the result is x_v. *)
    let rec combine v rem =
      match v with
      | Leaf i ->
        let s =
          try Z.invert (Z.div rem pis.(i)) pis.(i)
          with Invalid_argument _ -> invalid_arg "Crt.solve: moduli not coprime"
        in
        ss.(i) <- s;
        Z.erem (Z.mul cs.(i) s) pis.(i)
      | Node (_, l, r) ->
        let down c = combine c (Z.erem rem (Z.mul (prod c) (prod c))) in
        let xl = down l in
        let xr = down r in
        Z.add (Z.mul xl (prod r)) (Z.mul xr (prod l))
    in
    match Array.length pis with
    | 0 -> { pis; cs; ss; rows = no_rows; row_len = [||]; m = Z.one; e = Z.zero }
    | k ->
      let root = tree 0 k in
      let m = prod root in
      (* at the root, M mod M^2 is M itself *)
      let e = Z.erem (combine root m) m in
      { pis; cs; ss; rows = no_rows; row_len = Array.make k 0; m; e }

  let solve t = t.e

  (* Row i's offset and length in [t.rows], filled on first use. *)
  let cofactor t i =
    let lm = Array.length (Z.to_nat t.m) in
    if t.row_len.(i) = 0 then begin
      if Bigarray.Array1.dim t.rows = 0 then
        t.rows <-
          Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout
            (Array.length t.pis * lm);
      let q = Z.to_nat (Z.div t.m t.pis.(i)) in
      Array.iteri
        (fun k l -> Bigarray.Array1.set t.rows ((i * lm) + k) (Int32.of_int l))
        q;
      t.row_len.(i) <- Array.length q
    end;
    (i * lm, t.row_len.(i))

  (* e + d * cof - (M if the sum reaches M), for e < M and d * cof < M,
     with cof the [lc] limbs of [rows] from [off], in one fresh array of
     |M| limbs; the sum's limb |M| (0 or 1) is kept in [top].  Every
     partial product's limb j + k stays below |M|: |d| <= |pi_i| and
     |pi_i| + lc - 1 <= |M|. *)
  let shift ~(e : Nat.t) ~(d : Nat.t) ~(rows : limbs) ~off ~lc ~(m : Nat.t) :
      Nat.t =
    let lm = Array.length m in
    let r = Array.make lm 0 in
    Array.blit e 0 r 0 (Array.length e);
    let top = ref 0 in
    Array.iteri
      (fun j dj ->
        let carry = ref 0 in
        for k = 0 to lc - 1 do
          let s =
            Array.unsafe_get r (j + k)
            + (dj * Int32.to_int (Bigarray.Array1.unsafe_get rows (off + k)))
            + !carry
          in
          Array.unsafe_set r (j + k) (s land Nat.mask);
          carry := s lsr Nat.limb_bits
        done;
        let k = ref (j + lc) in
        while !carry <> 0 do
          if !k = lm then begin
            top := !top + !carry;
            carry := 0
          end
          else begin
            let s = r.(!k) + !carry in
            r.(!k) <- s land Nat.mask;
            carry := s lsr Nat.limb_bits;
            incr k
          end
        done)
      d;
    let rec below k =
      k >= 0 && (r.(k) < m.(k) || (r.(k) = m.(k) && below (k - 1)))
    in
    if !top > 0 || not (below (lm - 1)) then begin
      (* the borrow out of limb |M| - 1 cancels [top] *)
      let borrow = ref 0 in
      for k = 0 to lm - 1 do
        let s = r.(k) - m.(k) - !borrow in
        r.(k) <- s land Nat.mask;
        borrow := (s lsr Nat.limb_bits) land 1
      done
    end;
    Nat.normalize r

  let update_leaf t i (r : Z.t) =
    if i < 0 || i >= Array.length t.pis then
      invalid_arg "Crt.Tree.update_leaf: index out of range";
    let pi = t.pis.(i) in
    let c = Z.erem r pi in
    let d = Z.erem (Z.mul (Z.sub c t.cs.(i)) t.ss.(i)) pi in
    t.cs.(i) <- c;
    if not (Z.is_zero d) then begin
      let off, lc = cofactor t i in
      t.e <-
        Z.of_nat
          (shift ~e:(Z.to_nat t.e) ~d:(Z.to_nat d) ~rows:t.rows ~off ~lc
             ~m:(Z.to_nat t.m))
    end
end

(* Verification helper: does [x] satisfy every congruence? *)
let check (x : Z.t) (congruences : (Z.t * Z.t) list) : bool =
  List.for_all (fun (r, m) -> Z.equal (Z.erem x m) (Z.erem r m)) congruences
