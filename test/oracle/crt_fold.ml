open Lbq_bignum

let solve (congruences : (Z.t * Z.t) list) : Z.t =
  match congruences with
  | [] -> Z.zero
  | (r0, m0) :: rest ->
    if Z.leq m0 Z.one then invalid_arg "Crt.solve: modulus <= 1";
    let combine (x, m) (r, m') =
      if Z.leq m' Z.one then invalid_arg "Crt.solve: modulus <= 1";
      if not (Z.equal (Z.gcd m m') Z.one) then
        invalid_arg "Crt.solve: moduli not coprime";
      (* x' = x + m * t where t = (r - x) / m  (mod m') *)
      let t = Z.erem (Z.mul (Z.sub r x) (Z.invert m m')) m' in
      Z.add x (Z.mul m t), Z.mul m m'
    in
    let x, _m = List.fold_left combine (Z.erem r0 m0, m0) rest in
    x
