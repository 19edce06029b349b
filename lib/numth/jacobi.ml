(* Jacobi symbol (a/n) for odd positive n.  Drives the quadratic-residuosity
   PIR baseline (Kushilevitz–Ostrovsky), where queries are QRs/QNRs mod N. *)

open Lbq_bignum

let rec symbol (a : Z.t) (n : Z.t) : int =
  if Z.sign n <= 0 || Z.is_even n then invalid_arg "Jacobi.symbol: n must be odd positive";
  let a = Z.erem a n in
  if Z.is_zero a then (if Z.equal n Z.one then 1 else 0)
  else begin
    (* Pull out factors of two: (2/n) = (-1)^((n^2-1)/8). *)
    let rec strip a acc =
      if Z.is_even a then begin
        let n8 = Z.to_int (Z.erem n (Z.of_int 8)) in
        let flip = n8 = 3 || n8 = 5 in
        strip (Z.shift_right a 1) (if flip then -acc else acc)
      end
      else a, acc
    in
    let a, sgn = strip a 1 in
    if Z.equal a Z.one then sgn
    else begin
      (* Quadratic reciprocity for odd a, n. *)
      let a4 = Z.to_int (Z.erem a (Z.of_int 4)) in
      let n4 = Z.to_int (Z.erem n (Z.of_int 4)) in
      let sgn = if a4 = 3 && n4 = 3 then -sgn else sgn in
      sgn * symbol n a
    end
  end

(* Legendre symbol via Euler's criterion; [p] must be an odd prime. *)
let legendre (a : Z.t) (p : Z.t) : int =
  let ctx = Montgomery.create p in
  let e = Z.shift_right (Z.pred p) 1 in
  let v = Montgomery.powm ctx a e in
  if Z.is_zero v then 0
  else if Z.equal v Z.one then 1
  else -1
