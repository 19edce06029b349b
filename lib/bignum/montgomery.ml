(* Montgomery modular arithmetic for odd moduli: the one reduction engine
   of the codebase.  Every modulus it meets is odd — the Schnorr prime p,
   the Gentry–Ramzan N = Q0*Q1, the Blum modulus of the QR baseline and
   Paillier's n^2.  Operands live in Montgomery form (a * R mod n).

   The hot core is word-level CIOS (coarsely integrated operand
   scanning) at an internal radix of 2^29, wider than {!Nat}'s global
   2^26: limb products of 29-bit digits still fit a 63-bit OCaml int
   with room to accumulate eight products plus carries per column
   (8 * (2^29 - 1)^2 < 2^61), which lets the sweep process FOUR operand
   digits per pass (a quarter of the iteration count, where loop
   overhead — not the multiplies — is what dominates on boxed-int bignum
   code).  Residues are repacked 26 <-> 29 bits only at the engine
   boundary; R = 2^(29*k) for the engine's even window width k.  When
   k = 2 (mod 4) both sweeps close with one two-digit pass rather than
   padding k to a multiple of 4: in an in-process A/B on an Intel Xeon
   host, padded multiplies and squares took 1.19-1.22x the time at
   k = 18 -> 20, 1.14x at 26 -> 28 and 1.09x at 46 -> 48.

   Multiplication [cios_into] fuses product and REDC reduction in one
   sweep: each pass consumes b_i..b_{i+3}, picks the four Montgomery
   quotient digits m0..m3 that zero the bottom columns, and every inner
   column accumulates sum_d a_{j-d}*b_{i+d} + m_d*n_{j-d} (d = 0..3)
   before shifting down four limbs.  The invariant t < 2n keeps the
   accumulator in k+1 limbs.

   Squaring [sqr_into] is the dedicated path the window ladders spend
   ~5/6 of their time in: pass i contributes
     sum_{d<4} a_{i+d}^2*B^(2(i+d)) + 2*a_{i+d} * sum_{j>i+d} a_j*B^(i+d+j)
   so each symmetric cross product is computed once and doubled — 1.5k^2
   limb products against the multiply's 2k^2; a column peaks at four
   doubled and four quotient products, < 2^62 with carries.
   Front-loading the doubled terms relaxes the accumulator invariant to
   t < 3n (top limb <= 2, up to two trailing subtractions), which
   [reduce_out] absorbs.

   All intermediates live in per-domain {!Scratch} slots, so a
   steady-state [powm_sched] ladder performs its thousands of modular
   operations without allocating a word per iteration.

   The 29-bit window is the engine's only Montgomery form: a context
   holds no second residue radix, and the pre-rewrite 26-bit ladder
   lives in the test-only oracle library, which derives its own
   constants from the modulus. *)

let limb_bits = Nat.limb_bits

(* Engine radix: 29-bit digits.  8 * (2^29 - 1)^2 + carries < 2^62, so a
   column can take eight limb products in one 63-bit int. *)
let elb = 29
let ebase = 1 lsl elb
let emask = ebase - 1

(* Engine fields, 29-bit radix with Re = 2^(29*ke). *)
type t = {
  modulus : Z.t;
  ke : int;           (* engine window width: even, >= 4 *)
  ne : int array;     (* modulus as ke 29-bit digits (may have zero top) *)
  n'e : int;          (* -n^{-1} mod 2^29 *)
  r2e : int array;    (* Re^2 mod n as a ke-digit window *)
  one_e : int array;  (* Re mod n: the Montgomery form of 1 *)
  mutable tick : int ref option;
    (* optional modular-multiplication counter *)
}

(* Inverse of an odd digit modulo 2^29, by Hensel lifting: six
   doublings of precision from 1 bit cover 64. *)
let inv_digit (n0 : int) : int =
  let x = ref 1 in
  for _ = 1 to 6 do
    x := (!x * (2 - (n0 * !x land emask))) land emask
  done;
  assert ((n0 * !x) land emask = 1);
  !x

(* Little-endian bit-stream repack between limb radices.  Source digits
   must be in range; destination is fully overwritten.  The accumulator
   never exceeds src_lb + dst_lb - 1 <= 57 bits. *)
let repack ~(src : int array) ~(src_len : int) ~(src_lb : int)
    ~(dst : int array) ~(dst_len : int) ~(dst_lb : int) =
  let dmask = (1 lsl dst_lb) - 1 in
  let acc = ref 0 and nbits = ref 0 and di = ref 0 in
  for i = 0 to src_len - 1 do
    acc := !acc lor (Array.unsafe_get src i lsl !nbits);
    nbits := !nbits + src_lb;
    while !nbits >= dst_lb do
      if !di < dst_len then Array.unsafe_set dst !di (!acc land dmask);
      incr di;
      acc := !acc lsr dst_lb;
      nbits := !nbits - dst_lb
    done
  done;
  while !di < dst_len do
    Array.unsafe_set dst !di (!acc land dmask);
    acc := !acc lsr dst_lb;
    incr di
  done

(* Canonical 26-bit residue (< n) -> fresh ke-digit engine window. *)
let widen t (a : Nat.t) : int array =
  let w = Array.make t.ke 0 in
  repack ~src:a ~src_len:(Array.length a) ~src_lb:limb_bits ~dst:w
    ~dst_len:t.ke ~dst_lb:elb;
  w

let widen_into t (w : int array) (a : Nat.t) =
  repack ~src:a ~src_len:(Array.length a) ~src_lb:limb_bits ~dst:w
    ~dst_len:t.ke ~dst_lb:elb

(* Engine window (value < n) -> canonical 26-bit Nat. *)
let narrow t (w : int array) : Nat.t =
  let len26 = ((t.ke * elb) + limb_bits - 1) / limb_bits in
  let out = Array.make len26 0 in
  repack ~src:w ~src_len:t.ke ~src_lb:elb ~dst:out ~dst_len:len26
    ~dst_lb:limb_bits;
  Nat.normalize out

let modulus t = t.modulus
let k_limbs t = t.ke

(* Attach or detach a per-multiplication counter. *)
let set_counter t c = t.tick <- c

let counting t r f =
  let saved = t.tick in
  t.tick <- Some r;
  Fun.protect ~finally:(fun () -> t.tick <- saved) f

let tick t = match t.tick with Some r -> incr r | None -> ()

(* ------------------------------------------------------------------ *)
(* The fused 29-bit CIOS core                                          *)
(* ------------------------------------------------------------------ *)

(* Shared epilogue: buf[off .. off+k] holds a value < 3n (multiply keeps
   it < 2n; the symmetric squaring's front-loaded doubles reach < 3n).
   Subtract n while >= n — at most twice — writing the canonical
   residue into dst[0..ke-1].  [dst] may overlap [buf]. *)
let reduce_out t (dst : int array) (buf : int array) (off : int) =
  let k = t.ke and n = t.ne in
  let ge () =
    Array.unsafe_get buf (off + k) <> 0
    || (let rec go i =
          i < 0
          || (let bi = Array.unsafe_get buf (off + i)
              and ni = Array.unsafe_get n i in
              if bi <> ni then bi > ni else go (i - 1))
        in
        go (k - 1))
  in
  while ge () do
    let borrow = ref 0 in
    for i = 0 to k - 1 do
      let u = Array.unsafe_get buf (off + i) - Array.unsafe_get n i - !borrow in
      Array.unsafe_set buf (off + i) (u land emask);
      borrow := (u lsr elb) land 1
    done;
    Array.unsafe_set buf (off + k) (Array.unsafe_get buf (off + k) - !borrow)
  done;
  if dst != buf || off <> 0 then Array.blit buf off dst 0 k

(* dst[0..ke-1] <- a * b * Re^{-1} mod n by one fused CIOS sweep.
   [a] and [b] are ke-digit windows of residues < n; [dst] may alias
   either input (both are consumed before dst is written).  Each pass
   eats four digits b_i..b_{i+3}: quotient digits m0..m3 zero the four
   bottom columns, every inner column accumulates the eight limb
   products a_{j-d}*b_{i+d} + m_d*n_{j-d} (d = 0..3) before one mask and
   shift, and the window moves down four digits.  When ke = 2 (mod 4)
   a closing pass eats the last two digits, four products per column. *)
let cios_into t (dst : int array) (a : int array) (b : int array) =
  let k = t.ke and nn = t.ne and n' = t.n'e in
  let w = Scratch.get ~slot:Scratch.mont_acc (k + 1) in
  Array.fill w 0 (k + 1) 0;
  let n0 = Array.unsafe_get nn 0 and n1 = Array.unsafe_get nn 1
  and n2 = Array.unsafe_get nn 2 and n3 = Array.unsafe_get nn 3 in
  let a0 = Array.unsafe_get a 0 and a1 = Array.unsafe_get a 1
  and a2 = Array.unsafe_get a 2 and a3 = Array.unsafe_get a 3 in
  let k4 = k - (k land 2) in
  let i = ref 0 in
  while !i < k4 do
    let i0 = !i in
    let b0 = Array.unsafe_get b i0 and b1 = Array.unsafe_get b (i0 + 1)
    and b2 = Array.unsafe_get b (i0 + 2) and b3 = Array.unsafe_get b (i0 + 3) in
    (* columns 0..3 fix the quotient digits *)
    let u = Array.unsafe_get w 0 + (a0 * b0) in
    let m0 = ((u land emask) * n') land emask in
    let c = (u + (m0 * n0)) lsr elb in
    let u = Array.unsafe_get w 1 + (a1 * b0) + (a0 * b1) + (m0 * n1) + c in
    let m1 = ((u land emask) * n') land emask in
    let c = (u + (m1 * n0)) lsr elb in
    let u =
      Array.unsafe_get w 2 + (a2 * b0) + (a1 * b1) + (a0 * b2) + (m0 * n2)
      + (m1 * n1) + c
    in
    let m2 = ((u land emask) * n') land emask in
    let c = (u + (m2 * n0)) lsr elb in
    let u =
      Array.unsafe_get w 3 + (a3 * b0) + (a2 * b1) + (a1 * b2) + (a0 * b3)
      + (m0 * n3) + (m1 * n2) + (m2 * n1) + c
    in
    let m3 = ((u land emask) * n') land emask in
    let carry = ref ((u + (m3 * n0)) lsr elb) in
    for j = 4 to k - 1 do
      let u = Array.unsafe_get w j + !carry in
      let u = u + (Array.unsafe_get a j * b0) in
      let u = u + (Array.unsafe_get a (j - 1) * b1) in
      let u = u + (Array.unsafe_get a (j - 2) * b2) in
      let u = u + (Array.unsafe_get a (j - 3) * b3) in
      let u = u + (m0 * Array.unsafe_get nn j) in
      let u = u + (m1 * Array.unsafe_get nn (j - 1)) in
      let u = u + (m2 * Array.unsafe_get nn (j - 2)) in
      let u = u + (m3 * Array.unsafe_get nn (j - 3)) in
      Array.unsafe_set w (j - 4) (u land emask);
      carry := u lsr elb
    done;
    (* columns k..k+2, then the top carry into digits k-1 and k *)
    let ak1 = Array.unsafe_get a (k - 1) and nk1 = Array.unsafe_get nn (k - 1)
    and ak2 = Array.unsafe_get a (k - 2) and nk2 = Array.unsafe_get nn (k - 2) in
    let u =
      Array.unsafe_get w k + (ak1 * b1) + (ak2 * b2)
      + (Array.unsafe_get a (k - 3) * b3) + (m1 * nk1) + (m2 * nk2)
      + (m3 * Array.unsafe_get nn (k - 3)) + !carry
    in
    Array.unsafe_set w (k - 4) (u land emask);
    let u = (ak1 * b2) + (ak2 * b3) + (m2 * nk1) + (m3 * nk2) + (u lsr elb) in
    Array.unsafe_set w (k - 3) (u land emask);
    let u = (ak1 * b3) + (m3 * nk1) + (u lsr elb) in
    Array.unsafe_set w (k - 2) (u land emask);
    Array.unsafe_set w (k - 1) ((u lsr elb) land emask);
    Array.unsafe_set w k (u lsr (2 * elb));
    i := i0 + 4
  done;
  if k4 < k then begin
    (* closing pass on b_{k-2}, b_{k-1}: two quotient digits, four
       products per column, previous-digit operands rolled through
       locals *)
    let bi = Array.unsafe_get b k4 and bi1 = Array.unsafe_get b (k4 + 1) in
    let t0 = Array.unsafe_get w 0 + (a0 * bi) in
    let m0 = ((t0 land emask) * n') land emask in
    let c = (t0 + (m0 * n0)) lsr elb in
    let t1 = Array.unsafe_get w 1 + (a1 * bi) + (m0 * n1) + (a0 * bi1) + c in
    let m1 = ((t1 land emask) * n') land emask in
    let carry = ref ((t1 + (m1 * n0)) lsr elb) in
    let aprev = ref a1 and nprev = ref n1 in
    for j = 2 to k - 1 do
      let aj = Array.unsafe_get a j and nj = Array.unsafe_get nn j in
      let u =
        Array.unsafe_get w j
        + (aj * bi) + (!aprev * bi1)
        + (m0 * nj) + (m1 * !nprev)
        + !carry
      in
      Array.unsafe_set w (j - 2) (u land emask);
      carry := u lsr elb;
      aprev := aj;
      nprev := nj
    done;
    let u = Array.unsafe_get w k + (!aprev * bi1) + (m1 * !nprev) + !carry in
    Array.unsafe_set w (k - 2) (u land emask);
    Array.unsafe_set w (k - 1) ((u lsr elb) land emask);
    Array.unsafe_set w k (u lsr (2 * elb))
  end;
  reduce_out t dst w 0

(* dst[0..ke-1] <- a^2 * Re^{-1} mod n: the dedicated squaring sweep,
   four digits x_d = a_{i+d} (d = 0..3) per pass.  A pass's share of
   a^2 splits into its own triangle x_d*x_e (e >= d, doubled when
   e > d), added into the accumulator's columns i..i+6 up front, and
   the rectangle 2*x_d * a_j for j >= i+4, computed like a multiply, so
   each symmetric cross product is computed once and doubled: ~1.5k^2
   limb products against the multiply's 2k^2.  After the quotient
   columns 0..3, columns 4..i+3 carry only quotient terms (loop A);
   the rectangle ramps up over columns i+4..i+6, runs four doubled
   products per column above them (loop B), and ramps down over
   columns k..k+2.  A column peaks at 4*2^59 + 4*2^58 + carries < 2^62.
   The last four-digit pass has no rectangle when ke = 0 (mod 4) and a
   two-digit one when ke = 2 (mod 4), where a two-digit closing pass
   follows.  Front-loading the doubled terms relaxes the accumulator
   invariant to t < 3n (top digit <= 2).  [dst] may alias [a]. *)
let sqr_into t (dst : int array) (a : int array) =
  let k = t.ke and nn = t.ne and n' = t.n'e in
  (* digits k+1, k+2 take the last pass's triangle when ke = 0 (mod 4) *)
  let w = Scratch.get ~slot:Scratch.mont_acc (k + 3) in
  Array.fill w 0 (k + 3) 0;
  let n0 = Array.unsafe_get nn 0 and n1 = Array.unsafe_get nn 1
  and n2 = Array.unsafe_get nn 2 and n3 = Array.unsafe_get nn 3 in
  let k4 = k - (k land 2) in
  let i = ref 0 in
  while !i < k4 do
    let i0 = !i in
    let x0 = Array.unsafe_get a i0 and x1 = Array.unsafe_get a (i0 + 1)
    and x2 = Array.unsafe_get a (i0 + 2) and x3 = Array.unsafe_get a (i0 + 3) in
    let d0 = 2 * x0 and d1 = 2 * x1 and d2 = 2 * x2 and d3 = 2 * x3 in
    Array.unsafe_set w i0 (Array.unsafe_get w i0 + (x0 * x0));
    Array.unsafe_set w (i0 + 1) (Array.unsafe_get w (i0 + 1) + (d0 * x1));
    Array.unsafe_set w (i0 + 2)
      (Array.unsafe_get w (i0 + 2) + (d0 * x2) + (x1 * x1));
    Array.unsafe_set w (i0 + 3)
      (Array.unsafe_get w (i0 + 3) + (d0 * x3) + (d1 * x2));
    Array.unsafe_set w (i0 + 4)
      (Array.unsafe_get w (i0 + 4) + (d1 * x3) + (x2 * x2));
    Array.unsafe_set w (i0 + 5) (Array.unsafe_get w (i0 + 5) + (d2 * x3));
    Array.unsafe_set w (i0 + 6) (Array.unsafe_get w (i0 + 6) + (x3 * x3));
    (* columns 0..3 fix the quotient digits *)
    let u = Array.unsafe_get w 0 in
    let m0 = ((u land emask) * n') land emask in
    let c = (u + (m0 * n0)) lsr elb in
    let u = Array.unsafe_get w 1 + (m0 * n1) + c in
    let m1 = ((u land emask) * n') land emask in
    let c = (u + (m1 * n0)) lsr elb in
    let u = Array.unsafe_get w 2 + (m0 * n2) + (m1 * n1) + c in
    let m2 = ((u land emask) * n') land emask in
    let c = (u + (m2 * n0)) lsr elb in
    let u = Array.unsafe_get w 3 + (m0 * n3) + (m1 * n2) + (m2 * n1) + c in
    let m3 = ((u land emask) * n') land emask in
    let carry = ref ((u + (m3 * n0)) lsr elb) in
    (* loop A: quotient-only columns *)
    for c = 4 to i0 + 3 do
      let u = Array.unsafe_get w c + !carry in
      let u = u + (m0 * Array.unsafe_get nn c) in
      let u = u + (m1 * Array.unsafe_get nn (c - 1)) in
      let u = u + (m2 * Array.unsafe_get nn (c - 2)) in
      let u = u + (m3 * Array.unsafe_get nn (c - 3)) in
      Array.unsafe_set w (c - 4) (u land emask);
      carry := u lsr elb
    done;
    let ak1 = Array.unsafe_get a (k - 1) and nk1 = Array.unsafe_get nn (k - 1)
    and ak2 = Array.unsafe_get a (k - 2) and nk2 = Array.unsafe_get nn (k - 2) in
    let rect = i0 + 4 < k in
    (* the rectangle's share of column k *)
    let rk =
      if not rect then 0
      else begin
        let c = i0 + 4 in
        let a4 = Array.unsafe_get a c and a5 = Array.unsafe_get a (c + 1) in
        let u =
          Array.unsafe_get w c + (d0 * a4)
          + (m0 * Array.unsafe_get nn c) + (m1 * Array.unsafe_get nn (c - 1))
          + (m2 * Array.unsafe_get nn (c - 2)) + (m3 * Array.unsafe_get nn (c - 3))
          + !carry
        in
        Array.unsafe_set w i0 (u land emask);
        let u =
          Array.unsafe_get w (c + 1) + (d0 * a5) + (d1 * a4)
          + (m0 * Array.unsafe_get nn (c + 1)) + (m1 * Array.unsafe_get nn c)
          + (m2 * Array.unsafe_get nn (c - 1)) + (m3 * Array.unsafe_get nn (c - 2))
          + (u lsr elb)
        in
        Array.unsafe_set w (i0 + 1) (u land emask);
        carry := u lsr elb;
        if c + 2 = k then (d1 * a5) + (d2 * a4)
        else begin
          let u =
            Array.unsafe_get w (c + 2)
            + (d0 * Array.unsafe_get a (c + 2)) + (d1 * a5) + (d2 * a4)
            + (m0 * Array.unsafe_get nn (c + 2)) + (m1 * Array.unsafe_get nn (c + 1))
            + (m2 * Array.unsafe_get nn c) + (m3 * Array.unsafe_get nn (c - 1))
            + !carry
          in
          Array.unsafe_set w (i0 + 2) (u land emask);
          carry := u lsr elb;
          (* loop B: four doubled cross products per column *)
          for c = i0 + 7 to k - 1 do
            let u = Array.unsafe_get w c + !carry in
            let u = u + (d0 * Array.unsafe_get a c) in
            let u = u + (d1 * Array.unsafe_get a (c - 1)) in
            let u = u + (d2 * Array.unsafe_get a (c - 2)) in
            let u = u + (d3 * Array.unsafe_get a (c - 3)) in
            let u = u + (m0 * Array.unsafe_get nn c) in
            let u = u + (m1 * Array.unsafe_get nn (c - 1)) in
            let u = u + (m2 * Array.unsafe_get nn (c - 2)) in
            let u = u + (m3 * Array.unsafe_get nn (c - 3)) in
            Array.unsafe_set w (c - 4) (u land emask);
            carry := u lsr elb
          done;
          (d1 * ak1) + (d2 * ak2) + (d3 * Array.unsafe_get a (k - 3))
        end
      end
    in
    (* columns k..k+2, then the top carry into digits k-1 and k *)
    let u =
      Array.unsafe_get w k + rk + (m1 * nk1) + (m2 * nk2)
      + (m3 * Array.unsafe_get nn (k - 3)) + !carry
    in
    Array.unsafe_set w (k - 4) (u land emask);
    let u =
      Array.unsafe_get w (k + 1)
      + (if rect then (d2 * ak1) + (d3 * ak2) else 0)
      + (m2 * nk1) + (m3 * nk2) + (u lsr elb)
    in
    Array.unsafe_set w (k - 3) (u land emask);
    let u =
      Array.unsafe_get w (k + 2) + (if rect then d3 * ak1 else 0) + (m3 * nk1)
      + (u lsr elb)
    in
    Array.unsafe_set w (k - 2) (u land emask);
    Array.unsafe_set w (k - 1) ((u lsr elb) land emask);
    Array.unsafe_set w k (u lsr (2 * elb));
    i := i0 + 4
  done;
  if k4 < k then begin
    (* closing pass on a_{k-2}, a_{k-1}: their triangle, then two
       quotient digits and two products per column *)
    let x0 = Array.unsafe_get a k4 and x1 = Array.unsafe_get a (k4 + 1) in
    Array.unsafe_set w k4 (Array.unsafe_get w k4 + (x0 * x0));
    Array.unsafe_set w (k4 + 1) (Array.unsafe_get w (k4 + 1) + (2 * x0 * x1));
    Array.unsafe_set w k (Array.unsafe_get w k + (x1 * x1));
    let u = Array.unsafe_get w 0 in
    let m0 = ((u land emask) * n') land emask in
    let c = (u + (m0 * n0)) lsr elb in
    let u = Array.unsafe_get w 1 + (m0 * n1) + c in
    let m1 = ((u land emask) * n') land emask in
    let carry = ref ((u + (m1 * n0)) lsr elb) in
    for c = 2 to k - 1 do
      let u =
        Array.unsafe_get w c + (m0 * Array.unsafe_get nn c)
        + (m1 * Array.unsafe_get nn (c - 1)) + !carry
      in
      Array.unsafe_set w (c - 2) (u land emask);
      carry := u lsr elb
    done;
    let u = Array.unsafe_get w k + (m1 * Array.unsafe_get nn (k - 1)) + !carry in
    Array.unsafe_set w (k - 2) (u land emask);
    Array.unsafe_set w (k - 1) ((u lsr elb) land emask);
    Array.unsafe_set w k (u lsr (2 * elb))
  end;
  reduce_out t dst w 0

let create (modulus : Z.t) : t =
  if Z.sign modulus <= 0 then invalid_arg "Montgomery.create: modulus <= 0";
  if Z.is_even modulus then invalid_arg "Montgomery.create: modulus must be odd";
  let n = Z.to_nat modulus in
  (* The window is rounded up to an even width >= 4: the sweeps consume
     four digits per pass and at most one closing digit pair, and a
     four-digit pass needs four digits.  Padding digits of n are zero,
     which the sweeps tolerate (t < 2n still fits k+1 digits). *)
  let bits = Z.numbits modulus in
  let ke =
    let m = (bits + elb - 1) / elb in
    let m = if m land 1 = 1 then m + 1 else m in
    if m < 4 then 4 else m
  in
  let ne = Array.make ke 0 in
  repack ~src:n ~src_len:(Array.length n) ~src_lb:limb_bits ~dst:ne
    ~dst_len:ke ~dst_lb:elb;
  let n'e = (ebase - inv_digit ne.(0)) land emask in
  let t =
    { modulus; ke; ne; n'e; r2e = Array.make ke 0; one_e = Array.make ke 0;
      tick = None }
  in
  if Z.equal modulus Z.one then t
  else begin
    (* Re mod n and Re^2 mod n without a double-width product or a
       division: the server builds one context per stage-2 query.  Double
       2^(bits-1) < n (n odd, n >= 3) modulo n up to Re = 2^e mod n,
       e = 29 * ke, the Montgomery form of 1.  Re^2 mod n is the
       Montgomery form of 2^e: a left-to-right chain over the bits of e,
       one squaring per bit and one doubling per set bit (11 squarings at
       1024 bits).  Both steps keep the value canonical (< n). *)
    let e = elb * ke in
    let buf = Array.make (ke + 1) 0 in
    buf.((bits - 1) / elb) <- 1 lsl ((bits - 1) mod elb);
    let ge_n () =
      buf.(ke) <> 0
      ||
      let rec go i =
        i < 0 || (if buf.(i) <> ne.(i) then buf.(i) > ne.(i) else go (i - 1))
      in
      go (ke - 1)
    in
    let sub_n () =
      let borrow = ref 0 in
      for i = 0 to ke - 1 do
        let t = buf.(i) - ne.(i) - !borrow in
        buf.(i) <- t land emask;
        borrow := (t lsr elb) land 1
      done;
      buf.(ke) <- buf.(ke) - !borrow
    in
    let double_mod () =
      let carry = ref 0 in
      for i = 0 to ke do
        let t = (buf.(i) lsl 1) lor !carry in
        buf.(i) <- t land emask;
        carry := t lsr elb
      done;
      if ge_n () then sub_n ()
    in
    for _ = 1 to e - (bits - 1) do double_mod () done;
    let one_e = Array.sub buf 0 ke in
    for i = Z.numbits (Z.of_int e) - 1 downto 0 do
      sqr_into t buf buf;
      if (e lsr i) land 1 = 1 then double_mod ()
    done;
    { t with one_e; r2e = Array.sub buf 0 ke }
  end

let mont_mul_into t (dst : int array) (a : int array) (b : int array) =
  cios_into t dst a b

let mont_sqr_into t (dst : int array) (a : int array) =
  sqr_into t dst a

(* Engine REDC of a ke-digit window: w * Re^{-1} mod n as a canonical
   Nat — the single exit conversion of an exponentiation. *)
let redc_e t (w : int array) : Nat.t =
  let k = t.ke and nn = t.ne and n' = t.n'e in
  let p = Scratch.get ~slot:Scratch.mont_prod ((2 * k) + 1) in
  Array.blit w 0 p 0 k;
  Array.fill p k (k + 1) 0;
  for i = 0 to k - 1 do
    let m = (Array.unsafe_get p i * n') land emask in
    let carry =
      ref ((Array.unsafe_get p i + (m * Array.unsafe_get nn 0)) lsr elb)
    in
    for j = 1 to k - 1 do
      let u = Array.unsafe_get p (i + j) + (m * Array.unsafe_get nn j) + !carry in
      Array.unsafe_set p (i + j) (u land emask);
      carry := u lsr elb
    done;
    let idx = ref (i + k) in
    while !carry <> 0 do
      let u = Array.unsafe_get p !idx + !carry in
      Array.unsafe_set p !idx (u land emask);
      carry := u lsr elb;
      incr idx
    done
  done;
  reduce_out t p p k;
  narrow t (Array.sub p k k)

(* ------------------------------------------------------------------ *)
(* Montgomery-form windows                                             *)
(* ------------------------------------------------------------------ *)

(* A residue in Montgomery form held as one fresh ke-digit engine
   window.  Windows are canonical (< n), so two windows of one context
   are equal exactly when their residues are; a window is never mutated
   once returned, so tables of them can be shared across domains. *)
type window = int array

(* Entry conversion x -> x*Re mod n: one ticked sweep against Re^2. *)
let to_window t (z : Z.t) : window =
  let w = widen t (Z.to_nat (Z.erem z t.modulus)) in
  tick t;
  cios_into t w w t.r2e;
  w

(* Exit conversion (one REDC, untickled, as in [powm_sched]). *)
let of_window t (w : window) : Z.t = Z.of_nat (redc_e t w)

let one_window t : window = Array.copy t.one_e

let mul_window t (a : window) (b : window) : window =
  let d = Array.make t.ke 0 in
  tick t;
  cios_into t d a b;
  d

let sqr_window t (a : window) : window =
  let d = Array.make t.ke 0 in
  tick t;
  sqr_into t d a;
  d

(* 1 as a canonical Z (0 in the trivial ring). *)
let one_z t = if Z.equal t.modulus Z.one then Z.zero else Z.one

(* Odd powers b^1, b^3, ..., b^max_odd of a converted base: tbl.(j)
   holds b^(2j+1), every entry its own window ({!Wexp.table_cost}
   ticks). *)
let odd_powers_w t (bm : window) ~max_odd : window array =
  let tbl = Array.make (((max_odd - 1) / 2) + 1) bm in
  if max_odd >= 3 then begin
    let b2 = Array.make t.ke 0 in
    tick t;
    sqr_into t b2 bm;
    for j = 1 to (max_odd - 1) / 2 do
      tbl.(j) <- mul_window t tbl.(j - 1) b2
    done
  end;
  tbl

(* Replay a window schedule against a built table into a fresh
   accumulator ({!Wexp.replay_cost} ticks): per window its run of
   squarings, then its multiplication, then the trailing squarings.  The
   sweeps update the accumulator in place and never write the table. *)
let replay t (tbl : window array) (s : Wexp.t) : window =
  let acc = Array.copy tbl.(s.Wexp.first lsr 1) in
  let square n =
    for _ = 1 to n do
      tick t;
      sqr_into t acc acc
    done
  in
  Wexp.iter s ~square ~multiply:(fun v ->
      tick t;
      cios_into t acc acc tbl.(v lsr 1));
  acc

(* [b^e] for a window base and a recoded exponent: {!Wexp.cost} ticks
   (table plus replay), no conversions. *)
let pow_window t (b : window) (s : Wexp.t) : window =
  if s.Wexp.first = 0 then one_window t
  else replay t (odd_powers_w t b ~max_odd:s.Wexp.max_odd) s

(* Execute a precomputed sliding-window schedule (see {!Wexp}).
   Everything between the one [erem] on entry and the one [redc_e] on
   exit runs on fixed ke-digit engine windows: the odd-powers table is
   window-width, the accumulator is updated in place (the sweeps consume
   their inputs before writing), and each of the {!Wexp.cost}+1 ticked
   operations allocates nothing. *)
let powm_sched t (base_ : Z.t) (s : Wexp.t) : Z.t =
  if s.Wexp.first = 0 then one_z t
  else of_window t (pow_window t (to_window t base_) s)

(* Sliding-window modular exponentiation: recode once, then replay. *)
let powm t (base_ : Z.t) (e : Z.t) : Z.t =
  if Z.sign e < 0 then invalid_arg "Montgomery.powm: negative exponent";
  powm_sched t base_ (Wexp.recode (Z.to_nat e))

(* One-off product a*b mod n on two sweeps and no exit REDC:
   (a * b * Re^-1) * Re^2 * Re^-1 = a*b.  Two ticks. *)
let mulmod t a b =
  let aw = widen t (Z.to_nat (Z.erem a t.modulus)) in
  let bw = Scratch.get ~slot:Scratch.mont_op_b t.ke in
  widen_into t bw (Z.to_nat (Z.erem b t.modulus));
  tick t;
  cios_into t aw aw bw;
  tick t;
  cios_into t aw aw t.r2e;
  Z.of_nat (narrow t aw)

(* ------------------------------------------------------------------ *)
(* Precomputed-table kernels (the stage-1 engine)                      *)
(* ------------------------------------------------------------------ *)

(* Fixed-base material lives in Montgomery form: a base is converted
   once (one tick) when its table is built, every table entry is a
   window, and each exponentiation against the table converts out once
   (one untickled REDC).  Ticks therefore match the {!Wexp} closed
   forms exactly, plus one per table build. *)

type table = window array

let odd_powers t (base_ : Z.t) ~max_odd : table =
  if max_odd < 1 || max_odd land 1 = 0 then
    invalid_arg "Montgomery.odd_powers: max_odd must be odd and >= 1";
  odd_powers_w t (to_window t base_) ~max_odd

(* Replay a schedule against an already-built odd-powers table — the
   fixed-base fast path: no per-call table cost. *)
let powm_tbl t (tbl : table) (s : Wexp.t) : Z.t =
  if s.Wexp.first = 0 then one_z t
  else begin
    if (s.Wexp.max_odd - 1) / 2 >= Array.length tbl then
      invalid_arg "Montgomery.powm_tbl: odd-powers table too small";
    of_window t (replay t tbl s)
  end

(* Straus/Shamir interleaved double exponentiation over prebuilt tables:
   b1^e1 * b2^e2 for the exponents encoded by the two window streams,
   on ONE shared squaring ladder.  The ladder starts at the higher of
   the two leading-window positions and taps each stream's odd-powers
   table as its windows come due; total cost is max(pos1, pos2)
   squarings plus one multiplication per window beyond the first —
   exactly {!Wexp.straus_cost}. *)
let powm2_tbl t (tbl1 : table) (ws1 : (int * int) array) (tbl2 : table)
    (ws2 : (int * int) array) : Z.t =
  let n1 = Array.length ws1 and n2 = Array.length ws2 in
  if n1 = 0 && n2 = 0 then one_z t
  else begin
    let p0 =
      max
        (if n1 = 0 then -1 else fst ws1.(0))
        (if n2 = 0 then -1 else fst ws2.(0))
    in
    let acc = Array.make t.ke 0 in
    let started = ref false in
    let i1 = ref 0 and i2 = ref 0 in
    let tap (tbl : table) (ws : (int * int) array) idx i =
      if !idx < Array.length ws && fst ws.(!idx) = i then begin
        let e = tbl.(snd ws.(!idx) lsr 1) in
        incr idx;
        if !started then begin
          tick t;
          cios_into t acc acc e
        end
        else begin
          Array.blit e 0 acc 0 t.ke;
          started := true
        end
      end
    in
    for i = p0 downto 0 do
      if !started then begin
        tick t;
        sqr_into t acc acc
      end;
      tap tbl1 ws1 i1 i;
      tap tbl2 ws2 i2 i
    done;
    of_window t acc
  end

(* Lim-Lee fixed-base comb: table.(u) = base^(sum_i u_i * 2^(i * cols))
   for every tooth pattern u, in Montgomery form.  Built once per
   (context, base); every exponentiation of that base then costs only
   ~cols squarings plus table multiplications. *)
type fixed_base = { comb : Wexp.comb; ctable : window array }

let fixed_base_comb fb = fb.comb

let fixed_base t (base_ : Z.t) (c : Wexp.comb) : fixed_base =
  let b = to_window t base_ in
  let h = c.Wexp.teeth in
  (* basis.(i) = base^(2^(i * cols)), by repeated squaring. *)
  let basis = Array.make h b in
  for i = 1 to h - 1 do
    let x = Array.copy basis.(i - 1) in
    for _ = 1 to c.Wexp.cols do
      tick t;
      sqr_into t x x
    done;
    basis.(i) <- x
  done;
  let size = 1 lsl h in
  (* Entry 0 is never read: a zero digit skips its multiplication. *)
  let tbl = Array.make size b in
  let rec log2 v = if v <= 1 then 0 else 1 + log2 (v lsr 1) in
  for u = 1 to size - 1 do
    let lsb = u land -u in
    let rest = u lxor lsb in
    if rest = 0 then tbl.(u) <- basis.(log2 lsb)
    else tbl.(u) <- mul_window t tbl.(rest) basis.(log2 lsb)
  done;
  { comb = c; ctable = tbl }

(* Comb exponentiation: scan the digit vector from its highest nonzero
   column, squaring once per lower column and multiplying by the table
   entry of each nonzero digit — {!Wexp.comb_cost} ticks exactly. *)
let powm_fixed_base t (fb : fixed_base) (e : Nat.t) : Z.t =
  let d = Wexp.comb_digits fb.comb e in
  let topj = ref (-1) in
  for j = Array.length d - 1 downto 0 do
    if !topj < 0 && d.(j) <> 0 then topj := j
  done;
  if !topj < 0 then one_z t
  else begin
    let acc = Array.copy fb.ctable.(d.(!topj)) in
    for j = !topj - 1 downto 0 do
      tick t;
      sqr_into t acc acc;
      if d.(j) <> 0 then begin
        tick t;
        cios_into t acc acc fb.ctable.(d.(j))
      end
    done;
    of_window t acc
  end
