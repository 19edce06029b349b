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
   i from c to c' is one product,
     e <- e + ((c' - c) * s_i mod pi_i) * (M / pi_i)   (mod M),
   and since both terms are below M, one conditional subtraction.  The
   result is the unique solution in [0, M), so it is byte-identical to
   a fresh solve. *)
module Tree = struct
  type t = {
    pis : Z.t array;  (* leaf moduli pi_i *)
    cs : Z.t array;  (* current residues, reduced mod pi_i *)
    ss : Z.t array;  (* s_i = (M / pi_i)^{-1} mod pi_i *)
    m : Z.t;  (* M = prod pi_i *)
    mutable e : Z.t;  (* the solution, in [0, M) *)
  }

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
    | 0 -> { pis; cs; ss; m = Z.one; e = Z.zero }
    | k ->
      let root = tree 0 k in
      let m = prod root in
      (* at the root, M mod M^2 is M itself *)
      let e = Z.erem (combine root m) m in
      { pis; cs; ss; m; e }

  let size t = Array.length t.pis

  let solve t = t.e

  let modulus t = t.m

  let leaf_modulus t i =
    if i < 0 || i >= size t then
      invalid_arg "Crt.Tree.leaf_modulus: index out of range";
    t.pis.(i)

  let update_leaf t i (r : Z.t) =
    if i < 0 || i >= size t then
      invalid_arg "Crt.Tree.update_leaf: index out of range";
    let pi = t.pis.(i) in
    let c = Z.erem r pi in
    let d = Z.erem (Z.mul (Z.sub c t.cs.(i)) t.ss.(i)) pi in
    t.cs.(i) <- c;
    let e = Z.add t.e (Z.mul d (Z.div t.m pi)) in
    t.e <- (if Z.geq e t.m then Z.sub e t.m else e)
end

(* Verification helper: does [x] satisfy every congruence? *)
let check (x : Z.t) (congruences : (Z.t * Z.t) list) : bool =
  List.for_all (fun (r, m) -> Z.equal (Z.erem x m) (Z.erem r m)) congruences
