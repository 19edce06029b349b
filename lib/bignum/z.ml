(* Signed arbitrary-precision integers: a thin immutable layer over [Nat].
   The API deliberately mirrors the subset of Zarith this project needs. *)

type t = { sign : int; (* -1, 0 or 1; 0 iff mag is zero *)
           mag : Nat.t }

let mk sign mag =
  if Nat.is_zero mag then { sign = 0; mag = Nat.zero } else { sign; mag }

let zero = { sign = 0; mag = Nat.zero }
let one = mk 1 Nat.one
let two = mk 1 Nat.two

let of_int x =
  if x = 0 then zero
  else if x > 0 then mk 1 (Nat.of_int x)
  else mk (-1) (Nat.of_int (-x))

let to_int_opt { sign; mag } =
  match Nat.to_int_opt mag with
  | Some m when sign >= 0 -> Some m
  | Some m -> Some (-m)
  | None -> None

let to_int z =
  match to_int_opt z with
  | Some v -> v
  | None -> failwith "Z.to_int: overflow"

let sign z = z.sign
let is_zero z = z.sign = 0
let neg z = mk (-z.sign) z.mag
let abs z = mk (if z.sign = 0 then 0 else 1) z.mag

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign >= 0 then Nat.compare a.mag b.mag
  else Nat.compare b.mag a.mag

let equal a b = compare a b = 0
let lt a b = compare a b < 0
let leq a b = compare a b <= 0
let gt a b = compare a b > 0
let geq a b = compare a b >= 0
let max a b = if geq a b then a else b

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then mk a.sign (Nat.add a.mag b.mag)
  else begin
    let c = Nat.compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then mk a.sign (Nat.sub a.mag b.mag)
    else mk b.sign (Nat.sub b.mag a.mag)
  end

let sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else mk (a.sign * b.sign) (Nat.mul a.mag b.mag)

let mul_int a x = mul a (of_int x)

(* Truncated division (round toward zero), like OCaml's [/] and [mod]. *)
let div_rem a b =
  if b.sign = 0 then raise Division_by_zero;
  let q, r = Nat.divmod a.mag b.mag in
  mk (a.sign * b.sign) q, mk a.sign r

let div a b = fst (div_rem a b)
let rem a b = snd (div_rem a b)

(* Euclidean remainder: [erem a b] is in [0, |b|). *)
let erem a b =
  let r = rem a b in
  if r.sign < 0 then add r (abs b) else r

(* Euclidean division consistent with [erem]: a = ediv a b * b + erem a b. *)
let ediv a b =
  let q, r = div_rem a b in
  if r.sign < 0 then (if b.sign > 0 then sub q one else add q one) else q

let succ a = add a one
let pred a = sub a one

let shift_left a n = mk a.sign (Nat.shift_left a.mag n)

let shift_right a n =
  (* Arithmetic shift on the magnitude is fine for our (non-negative) uses;
     for negatives we implement floor semantics. *)
  if a.sign >= 0 then mk a.sign (Nat.shift_right a.mag n)
  else begin
    let q = Nat.shift_right a.mag n in
    let exact = Nat.equal a.mag (Nat.shift_left q n) in
    if exact then mk (-1) q else neg (succ (mk 1 q))
  end

let numbits a = Nat.numbits a.mag

let testbit a i =
  if a.sign < 0 then invalid_arg "Z.testbit: negative";
  Nat.testbit a.mag i

let is_even a = not (testbit (abs a) 0) || a.sign = 0
let is_odd a = a.sign <> 0 && Nat.testbit a.mag 0

let to_string z = (if z.sign < 0 then "-" else "") ^ Nat.to_string z.mag

let of_string s =
  if s = "" then invalid_arg "Z.of_string: empty";
  if s.[0] = '-' then mk (-1) (Nat.of_string (String.sub s 1 (String.length s - 1)))
  else if s.[0] = '+' then mk 1 (Nat.of_string (String.sub s 1 (String.length s - 1)))
  else mk 1 (Nat.of_string s)

let pp fmt z = Format.pp_print_string fmt (to_string z)

let to_hex z =
  if z.sign < 0 then invalid_arg "Z.to_hex: negative";
  if z.sign = 0 then "0"
  else begin
    let bytes = Nat.to_bytes_be z.mag in
    let buf = Buffer.create (2 * String.length bytes) in
    String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) bytes;
    (* Drop a single leading zero nibble for canonical form. *)
    let s = Buffer.contents buf in
    if String.length s > 1 && s.[0] = '0' then String.sub s 1 (String.length s - 1) else s
  end

let of_hex s =
  if s = "" then invalid_arg "Z.of_hex: empty";
  let nibble c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Z.of_hex: bad digit"
  in
  let s = if String.length s mod 2 = 1 then "0" ^ s else s in
  let n = String.length s / 2 in
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (Char.chr ((nibble s.[2 * i] lsl 4) lor nibble s.[(2 * i) + 1]))
  done;
  mk 1 (Nat.of_bytes_be (Bytes.unsafe_to_string b))

let of_bytes_be s = mk 1 (Nat.of_bytes_be s)

(* Zero-copy bridges to the limb level (used by the Montgomery engine). *)
let of_nat n = mk 1 n

let to_nat z =
  if z.sign < 0 then invalid_arg "Z.to_nat: negative";
  z.mag

let to_bytes_be z =
  if z.sign < 0 then invalid_arg "Z.to_bytes_be: negative";
  Nat.to_bytes_be z.mag

(* Fixed-width big-endian encoding, zero-padded on the left. *)
let to_bytes_be_padded z ~len =
  let s = to_bytes_be z in
  if String.length s > len then invalid_arg "Z.to_bytes_be_padded: too large";
  String.make (len - String.length s) '\000' ^ s

let pow base_ exp =
  if exp < 0 then invalid_arg "Z.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else if e land 1 = 1 then go (mul acc b) (mul b b) (e lsr 1)
    else go acc (mul b b) (e lsr 1)
  in
  go one base_ exp

let gcd a b =
  (* Euclid on magnitudes; fine for our sizes and call counts. *)
  let rec go a b = if Nat.is_zero b then a else go b (snd (Nat.divmod a b)) in
  mk 1 (go (abs a).mag (abs b).mag)

(* Extended gcd: returns (g, u, v) with u*a + v*b = g, g >= 0. *)
let gcdext a b =
  let rec go r0 r1 s0 s1 t0 t1 =
    if is_zero r1 then r0, s0, t0
    else begin
      let q, r2 = div_rem r0 r1 in
      go r1 r2 s1 (sub s0 (mul q s1)) t1 (sub t0 (mul q t1))
    end
  in
  let g, u, v = go a b one zero zero one in
  if g.sign < 0 then neg g, neg u, neg v else g, u, v

(* Modular inverse of [a] mod [m]; raises if not invertible.  The Euclid
   of [gcdext (erem a m) m], carrying only the cofactor of [a]: the one
   of [m] is never read. *)
let invert a m =
  let rec go r0 r1 s0 s1 =
    if is_zero r1 then r0, s0
    else begin
      let q, r2 = div_rem r0 r1 in
      go r1 r2 s1 (sub s0 (mul q s1))
    end
  in
  let g, u = go (erem a m) m one zero in
  if not (equal (abs g) one) then invalid_arg "Z.invert: not invertible";
  erem (if g.sign < 0 then neg u else u) m

(* Integer square root (floor), Newton's method with a power-of-two seed. *)
let sqrt a =
  if a.sign < 0 then invalid_arg "Z.sqrt: negative";
  if is_zero a then zero
  else begin
    let x0 = shift_left one ((numbits a + 1) / 2) in
    let rec go x =
      let x' = shift_right (add x (div a x)) 1 in
      if lt x' x then go x' else x
    in
    go x0
  end

(* Uniform random integer with exactly the requested bit budget, drawn from
   a caller-supplied byte source (so callers control determinism). *)
let random_bits ~bits (rand : int -> string) =
  if bits <= 0 then invalid_arg "Z.random_bits: bits <= 0";
  let nbytes = (bits + 7) / 8 in
  let s = rand nbytes in
  if String.length s <> nbytes then invalid_arg "Z.random_bits: bad byte source";
  let b = Bytes.of_string s in
  (* Clear excess high bits so the result is uniform in [0, 2^bits). *)
  let excess = (nbytes * 8) - bits in
  if excess > 0 then
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) land (0xff lsr excess)));
  of_bytes_be (Bytes.unsafe_to_string b)

(* Uniform in [0, bound) by rejection sampling. *)
let random_below ~bound rand =
  if sign bound <= 0 then invalid_arg "Z.random_below: bound <= 0";
  let bits = numbits bound in
  let rec go () =
    let c = random_bits ~bits rand in
    if lt c bound then c else go ()
  in
  go ()

(* Uniform in [1, bound). *)
let random_unit ~bound rand =
  let rec go () =
    let c = random_below ~bound rand in
    if is_zero c then go () else c
  in
  go ()

let mod_pow_naive b e m =
  (* Square-and-multiply on plain [mul]/[erem]: the engine-independent
     oracle the Montgomery crosschecks compare against. *)
  if m.sign <= 0 then invalid_arg "Z.mod_pow: modulus <= 0";
  if e.sign < 0 then invalid_arg "Z.mod_pow: negative exponent";
  let b = erem b m in
  let nb = numbits e in
  let r = ref (erem one m) in
  for i = nb - 1 downto 0 do
    r := erem (mul !r !r) m;
    if testbit e i then r := erem (mul !r b) m
  done;
  !r
