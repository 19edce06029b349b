(* Low-level arbitrary-precision natural numbers.

   Representation: little-endian [int array] of limbs in base 2^26, with no
   trailing zero limbs (canonical form).  Zero is the empty array.  Base 2^26
   is chosen so that a limb product plus a limb plus a carry fits comfortably
   in a 63-bit OCaml [int] (52 + 1 bits), which keeps every inner loop free
   of boxed arithmetic. *)

let limb_bits = 26
let base = 1 lsl limb_bits
let mask = base - 1

type t = int array

let zero : t = [||]
let is_zero (a : t) = Array.length a = 0

(* Canonicalise: drop trailing zero limbs. *)
let normalize (a : t) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int (x : int) : t =
  if x < 0 then invalid_arg "Nat.of_int: negative";
  if x = 0 then zero
  else if x < base then [| x |]
  else begin
    let rec count acc x = if x = 0 then acc else count (acc + 1) (x lsr limb_bits) in
    let n = count 0 x in
    Array.init n (fun i -> (x lsr (i * limb_bits)) land mask)
  end

let to_int_opt (a : t) : int option =
  (* Largest representable OCaml int spans three 26-bit limbs (62 bits). *)
  match Array.length a with
  | 0 -> Some 0
  | 1 -> Some a.(0)
  | 2 -> Some (a.(0) lor (a.(1) lsl limb_bits))
  | 3 ->
    if a.(2) < 1 lsl (Sys.int_size - 1 - (2 * limb_bits)) then
      Some (a.(0) lor (a.(1) lsl limb_bits) lor (a.(2) lsl (2 * limb_bits)))
    else None
  | _ -> None

let compare (a : t) (b : t) : int =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let equal a b = compare a b = 0

(* Number of significant bits; 0 for zero. *)
let numbits (a : t) : int =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec width w x = if x = 0 then w else width (w + 1) (x lsr 1) in
    ((n - 1) * limb_bits) + width 0 top
  end

let testbit (a : t) (i : int) : bool =
  if i < 0 then invalid_arg "Nat.testbit: negative index";
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let a, b, la, lb = if la >= lb then a, b, la, lb else b, a, lb, la in
  let r = Array.make (la + 1) 0 in
  let carry = ref 0 in
  for i = 0 to lb - 1 do
    let t = a.(i) + b.(i) + !carry in
    r.(i) <- t land mask;
    carry := t lsr limb_bits
  done;
  for i = lb to la - 1 do
    let t = a.(i) + !carry in
    r.(i) <- t land mask;
    carry := t lsr limb_bits
  done;
  r.(la) <- !carry;
  normalize r

(* [sub a b] requires a >= b. *)
let sub (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la < lb then invalid_arg "Nat.sub: underflow";
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to lb - 1 do
    let t = a.(i) - b.(i) - !borrow in
    r.(i) <- t land mask;
    borrow := (t lsr limb_bits) land 1 (* t in (-base, base): borrow iff t < 0 *)
  done;
  for i = lb to la - 1 do
    let t = a.(i) - !borrow in
    r.(i) <- t land mask;
    borrow := (t lsr limb_bits) land 1
  done;
  if !borrow <> 0 then invalid_arg "Nat.sub: underflow";
  normalize r

let add_int (a : t) (x : int) : t = add a (of_int x)

(* r.(off ..) += a * m  for a single limb m; returns nothing, mutates r.
   r must be long enough to absorb the final carry.  Inner loop of every
   multiplication: unsafe accesses are justified by the explicit length
   bounds here and in the callers. *)
let addmul_1 (r : int array) (off : int) (a : t) (m : int) =
  if m <> 0 then begin
    let carry = ref 0 in
    let la = Array.length a in
    for i = 0 to la - 1 do
      let t =
        Array.unsafe_get r (off + i)
        + (Array.unsafe_get a i * m)
        + !carry
      in
      Array.unsafe_set r (off + i) (t land mask);
      carry := t lsr limb_bits
    done;
    let i = ref (off + la) in
    while !carry <> 0 do
      let t = r.(!i) + !carry in
      r.(!i) <- t land mask;
      carry := t lsr limb_bits;
      incr i
    done
  end

let mul_schoolbook (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for j = 0 to lb - 1 do
      addmul_1 r j a b.(j)
    done;
    normalize r
  end

let shift_left (a : t) (bits : int) : t =
  if bits < 0 then invalid_arg "Nat.shift_left: negative";
  if is_zero a || bits = 0 then a
  else begin
    let limbs = bits / limb_bits and off = bits mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let t = a.(i) lsl off in
      r.(i + limbs) <- r.(i + limbs) lor (t land mask);
      r.(i + limbs + 1) <- t lsr limb_bits
    done;
    normalize r
  end

let shift_right (a : t) (bits : int) : t =
  if bits < 0 then invalid_arg "Nat.shift_right: negative";
  if is_zero a || bits = 0 then a
  else begin
    let limbs = bits / limb_bits and off = bits mod limb_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let lr = la - limbs in
      let r = Array.make lr 0 in
      for i = 0 to lr - 1 do
        let lo = a.(i + limbs) lsr off in
        let hi =
          if off = 0 || i + limbs + 1 >= la then 0
          else (a.(i + limbs + 1) lsl (limb_bits - off)) land mask
        in
        r.(i) <- lo lor hi
      done;
      normalize r
    end
  end

(* Division by a single limb: returns (quotient, remainder). *)
let divmod_1 (a : t) (d : int) : t * int =
  if d <= 0 || d >= base then invalid_arg "Nat.divmod_1: divisor out of range";
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  normalize q, !r

let karatsuba_threshold = 32
let toom3_threshold = 128

(* Split [a] at limb [k]: (low, high) with a = low + high * base^k. *)
let split (a : t) (k : int) : t * t =
  let la = Array.length a in
  if la <= k then a, zero
  else normalize (Array.sub a 0 k), Array.sub a k (la - k)

(* Three-way split: a = a0 + a1 * base^k + a2 * base^2k. *)
let split3 (a : t) (k : int) : t * t * t =
  let la = Array.length a in
  if la <= k then a, zero, zero
  else if la <= 2 * k then
    normalize (Array.sub a 0 k), Array.sub a k (la - k), zero
  else
    ( normalize (Array.sub a 0 k),
      normalize (Array.sub a k k),
      Array.sub a (2 * k) (la - (2 * k)) )

let shift_limbs (a : t) (k : int) : t =
  if is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + k) 0 in
    Array.blit a 0 r k la;
    r
  end

(* Halve an even value (exact). *)
let half (a : t) : t =
  let la = Array.length a in
  if la = 0 then zero
  else begin
    let r = Array.make la 0 in
    for i = 0 to la - 2 do
      r.(i) <- (a.(i) lsr 1) lor ((a.(i + 1) land 1) lsl (limb_bits - 1))
    done;
    r.(la - 1) <- a.(la - 1) lsr 1;
    normalize r
  end

(* Toom-Cook 3-way interpolation, shared by [mul] and [sqr].  The point
   values are P(0), P(1), P(-1), P(2), P(inf) of the degree-4 product
   polynomial P = c0 + c1 X + .. + c4 X^4 (X = base^k); [vm1] is passed
   as magnitude + sign since (a0 - a1 + a2) can be negative.  Every
   coefficient of P is non-negative, so each subtraction below is exact
   over naturals and the divisions by 2 and 3 are exact:

     t1 = (v1 + vm1)/2 = c0 + c2 + c4        c2 = t1 - c0 - c4
     t2 = (v1 - vm1)/2 = c1 + c3
     t3 = (v2 - c0 - 4 c2 - 16 c4)/2 = c1 + 4 c3
     c3 = (t3 - t2)/3                        c1 = t2 - c3 *)
let toom3_interp ~(v0 : t) ~(v1 : t) ~(vm1 : t) ~(vm1_neg : bool) ~(v2 : t)
    ~(vinf : t) ~(k : int) : t =
  let t1, t2 =
    if vm1_neg then half (sub v1 vm1), half (add v1 vm1)
    else half (add v1 vm1), half (sub v1 vm1)
  in
  let c2 = sub (sub t1 v0) vinf in
  let t3 =
    half (sub v2 (add v0 (add (shift_left c2 2) (shift_left vinf 4))))
  in
  let c3, r3 = divmod_1 (sub t3 t2) 3 in
  assert (r3 = 0);
  let c1 = sub t2 c3 in
  add
    (add v0 (shift_limbs c1 k))
    (add (shift_limbs c2 (2 * k))
       (add (shift_limbs c3 (3 * k)) (shift_limbs vinf (4 * k))))

(* Multiplication ladder: schoolbook below [karatsuba_threshold],
   Karatsuba 2-way up to [toom3_threshold], Toom-Cook 3-way above —
   5 recursive third-size products instead of Karatsuba's 9 over two
   levels, which wins on the multi-thousand-bit operands of the CRT
   product tree and the phi-hiding moduli. *)
let rec mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la < karatsuba_threshold || lb < karatsuba_threshold then mul_schoolbook a b
  else if la < toom3_threshold || lb < toom3_threshold then begin
    let k = (max la lb + 1) / 2 in
    let a0, a1 = split a k and b0, b1 = split b k in
    let z0 = mul a0 b0 in
    let z2 = mul a1 b1 in
    let z1 = sub (sub (mul (add a0 a1) (add b0 b1)) z0) z2 in
    add (add z0 (shift_limbs z1 k)) (shift_limbs z2 (2 * k))
  end
  else begin
    let k = (max la lb + 2) / 3 in
    let a0, a1, a2 = split3 a k and b0, b1, b2 = split3 b k in
    let v0 = mul a0 b0 in
    let vinf = mul a2 b2 in
    let v1 = mul (add (add a0 a1) a2) (add (add b0 b1) b2) in
    (* a(-1) = a0 - a1 + a2 as sign + magnitude, likewise b(-1). *)
    let pa = add a0 a2 and pb = add b0 b2 in
    let na, ma =
      if compare pa a1 >= 0 then false, sub pa a1 else true, sub a1 pa
    in
    let nb, mb =
      if compare pb b1 >= 0 then false, sub pb b1 else true, sub b1 pb
    in
    let vm1 = mul ma mb in
    let v2 =
      mul
        (add a0 (shift_left (add a1 (shift_left a2 1)) 1))
        (add b0 (shift_left (add b1 (shift_left b2 1)) 1))
    in
    toom3_interp ~v0 ~v1 ~vm1 ~vm1_neg:(na <> nb) ~v2 ~vinf ~k
  end

(* Schoolbook squaring.  The cross products a_i * a_j (i < j) are each
   computed once and doubled afterwards, so squaring costs about half the
   limb products of [mul_schoolbook a a]; the diagonal a_i^2 terms are
   folded in last. *)
let sqr_schoolbook (a : t) : t =
  let n = Array.length a in
  if n = 0 then zero
  else begin
    let r = Array.make (2 * n) 0 in
    (* Off-diagonal products a_i * a_j (j > i) accumulated at column i+j. *)
    for i = 0 to n - 2 do
      let m = Array.unsafe_get a i in
      if m <> 0 then begin
        let carry = ref 0 in
        for j = i + 1 to n - 1 do
          let t =
            Array.unsafe_get r (i + j)
            + (Array.unsafe_get a j * m)
            + !carry
          in
          Array.unsafe_set r (i + j) (t land mask);
          carry := t lsr limb_bits
        done;
        let k = ref (i + n) in
        while !carry <> 0 do
          let t = r.(!k) + !carry in
          r.(!k) <- t land mask;
          carry := t lsr limb_bits;
          incr k
        done
      end
    done;
    (* Double the cross terms in place (sum < base^2n, carry dies inside). *)
    let carry = ref 0 in
    for i = 0 to (2 * n) - 1 do
      let t = (Array.unsafe_get r i lsl 1) lor !carry in
      Array.unsafe_set r i (t land mask);
      carry := t lsr limb_bits
    done;
    (* Add the diagonal: a_i^2 spans columns 2i and 2i+1. *)
    let carry = ref 0 in
    for i = 0 to n - 1 do
      let ai = Array.unsafe_get a i in
      let sq = ai * ai in
      let t0 = Array.unsafe_get r (2 * i) + (sq land mask) + !carry in
      Array.unsafe_set r (2 * i) (t0 land mask);
      let t1 =
        Array.unsafe_get r ((2 * i) + 1) + (sq lsr limb_bits) + (t0 lsr limb_bits)
      in
      Array.unsafe_set r ((2 * i) + 1) (t1 land mask);
      carry := t1 lsr limb_bits
    done;
    normalize r
  end

(* Squaring ladder, mirroring [mul]: Karatsuba squaring — (a0 + a1 B^k)^2
   needs three half-size squarings, since the middle term
   (a0 + a1)^2 - a0^2 - a1^2 = 2 a0 a1 — and Toom-3 squaring above
   [toom3_threshold].  In the squaring case a(-1)^2 is non-negative
   whatever the sign of a0 - a1 + a2, so no signed bookkeeping at all. *)
let rec sqr (a : t) : t =
  let la = Array.length a in
  if la < karatsuba_threshold then sqr_schoolbook a
  else if la < toom3_threshold then begin
    let k = (la + 1) / 2 in
    let a0, a1 = split a k in
    let z0 = sqr a0 in
    let z2 = sqr a1 in
    let z1 = sub (sqr (add a0 a1)) (add z0 z2) in
    add (add z0 (shift_limbs z1 k)) (shift_limbs z2 (2 * k))
  end
  else begin
    let k = (la + 2) / 3 in
    let a0, a1, a2 = split3 a k in
    let v0 = sqr a0 in
    let vinf = sqr a2 in
    let v1 = sqr (add (add a0 a1) a2) in
    let pa = add a0 a2 in
    let ma = if compare pa a1 >= 0 then sub pa a1 else sub a1 pa in
    let vm1 = sqr ma in
    let v2 = sqr (add a0 (shift_left (add a1 (shift_left a2 1)) 1)) in
    toom3_interp ~v0 ~v1 ~vm1 ~vm1_neg:false ~v2 ~vinf ~k
  end

let mul_int (a : t) (m : int) : t =
  if m < 0 then invalid_arg "Nat.mul_int: negative"
  else if m = 0 || is_zero a then zero
  else if m < base then begin
    let r = Array.make (Array.length a + 1) 0 in
    addmul_1 r 0 a m;
    normalize r
  end
  else mul a (of_int m)

(* Knuth Algorithm D (TAOCP 4.3.1) for multi-limb divisors.
   Requires Array.length d >= 2 and a >= d not required (handled by caller). *)
let divmod_knuth (a : t) (d : t) : t * t =
  let n = Array.length d in
  (* Normalise so the top divisor limb has its high bit set. *)
  let top = d.(n - 1) in
  let rec width w x = if x = 0 then w else width (w + 1) (x lsr 1) in
  let shift = limb_bits - width 0 top in
  let u0 = shift_left a shift and v = shift_left d shift in
  let v = if Array.length v = n then v else (assert false) in
  let m = Array.length u0 - n in
  if m < 0 then zero, a
  else begin
    (* Work buffer with one extra high limb. *)
    let u = Array.make (Array.length u0 + 1) 0 in
    Array.blit u0 0 u 0 (Array.length u0);
    let q = Array.make (m + 1) 0 in
    let vtop = v.(n - 1) and vsnd = v.(n - 2) in
    for j = m downto 0 do
      let num = (u.(j + n) lsl limb_bits) lor u.(j + n - 1) in
      let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
      let adjust = ref true in
      while !adjust do
        if !qhat >= base
           || !qhat * vsnd > (!rhat lsl limb_bits) lor u.(j + n - 2)
        then begin
          decr qhat;
          rhat := !rhat + vtop;
          if !rhat >= base then adjust := false
        end
        else adjust := false
      done;
      (* Multiply-subtract u[j..j+n] -= qhat * v. *)
      let borrow = ref 0 in
      for i = 0 to n - 1 do
        let t = u.(i + j) - (!qhat * v.(i)) - !borrow in
        u.(i + j) <- t land mask;
        borrow := - (t asr limb_bits)
      done;
      let t = u.(j + n) - !borrow in
      if t < 0 then begin
        (* qhat was one too large: add v back. *)
        decr qhat;
        let carry = ref 0 in
        for i = 0 to n - 1 do
          let s = u.(i + j) + v.(i) + !carry in
          u.(i + j) <- s land mask;
          carry := s lsr limb_bits
        done;
        u.(j + n) <- (t + !carry) land mask
      end
      else u.(j + n) <- t;
      q.(j) <- !qhat
    done;
    let r = normalize (Array.sub u 0 n) in
    normalize q, shift_right r shift
  end

let divmod (a : t) (d : t) : t * t =
  match Array.length d with
  | 0 -> raise Division_by_zero
  | 1 ->
    let q, r = divmod_1 a d.(0) in
    q, of_int r
  | _ -> if compare a d < 0 then zero, a else divmod_knuth a d

(* Big-endian byte conversions. *)
let of_bytes_be (s : string) : t =
  let nbytes = String.length s in
  let nbits = nbytes * 8 in
  let nlimbs = (nbits + limb_bits - 1) / limb_bits in
  let r = Array.make (max nlimbs 1) 0 in
  for k = 0 to nbytes - 1 do
    (* byte k from the end contributes bits [8k, 8k+8). *)
    let byte = Char.code s.[nbytes - 1 - k] in
    let bit = 8 * k in
    let limb = bit / limb_bits and off = bit mod limb_bits in
    r.(limb) <- r.(limb) lor ((byte lsl off) land mask);
    if off > limb_bits - 8 && limb + 1 < Array.length r then
      r.(limb + 1) <- r.(limb + 1) lor (byte lsr (limb_bits - off))
  done;
  normalize r

let to_bytes_be (a : t) : string =
  if is_zero a then ""
  else begin
    let nbytes = (numbits a + 7) / 8 in
    let b = Bytes.create nbytes in
    for k = 0 to nbytes - 1 do
      let bit = 8 * k in
      let limb = bit / limb_bits and off = bit mod limb_bits in
      let v = a.(limb) lsr off in
      let v =
        if off > limb_bits - 8 && limb + 1 < Array.length a then
          v lor (a.(limb + 1) lsl (limb_bits - off))
        else v
      in
      Bytes.set b (nbytes - 1 - k) (Char.chr (v land 0xff))
    done;
    Bytes.unsafe_to_string b
  end

(* Decimal conversion in chunks of 10^7 (fits in one limb arithmetic). *)
let chunk = 10_000_000
let chunk_digits = 7

let to_string (a : t) : string =
  if is_zero a then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec go a acc =
      if is_zero a then acc
      else begin
        let q, r = divmod_1 a chunk in
        go q (r :: acc)
      end
    in
    match go a [] with
    | [] -> "0"
    | first :: rest ->
      Buffer.add_string buf (string_of_int first);
      List.iter (fun r -> Buffer.add_string buf (Printf.sprintf "%07d" r)) rest;
      Buffer.contents buf
  end

let of_string (s : string) : t =
  if s = "" then invalid_arg "Nat.of_string: empty";
  let acc = ref zero in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let len = min chunk_digits (n - !i) in
    let part = String.sub s !i len in
    String.iter (fun c -> if c < '0' || c > '9' then invalid_arg "Nat.of_string: bad digit") part;
    let scale =
      let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
      pow 10 len
    in
    acc := add_int (mul_int !acc scale) (int_of_string part);
    i := !i + len
  done;
  !acc

let one = of_int 1
let two = of_int 2
