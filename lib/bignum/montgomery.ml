(* Montgomery modular arithmetic for odd moduli: the one reduction engine
   of the codebase.  Every modulus it meets is odd — the Schnorr prime p,
   the Gentry–Ramzan N = Q0*Q1, the Blum modulus of the QR baseline and
   Paillier's n^2.  Operands live in Montgomery form (a * R mod n).

   The hot core is word-level CIOS (coarsely integrated operand
   scanning) at an internal radix of 2^29, wider than {!Nat}'s global
   2^26: limb products of 29-bit digits still fit a 63-bit OCaml int
   with room to accumulate four products plus carries per column, which
   lets the sweep process TWO operand digits per pass (halving the
   iteration count, where loop overhead — not the multiplies — is what
   dominates on boxed-int bignum code).  Residues are repacked 26 <-> 29
   bits only at the engine boundary; R = 2^(29*k) for the engine's
   even window width k.

   Multiplication [cios2_into] fuses product and REDC reduction in one
   sweep: each pass consumes b_i, b_{i+1}, picks the two Montgomery
   quotient digits m0, m1 that zero the bottom columns, and every inner
   column accumulates a_j*b_i + a_{j-1}*b_{i+1} + m0*n_j + m1*n_{j-1}
   before shifting down two limbs.  The invariant t < 2n keeps the
   accumulator in k+1 limbs.

   Squaring [sqr2_into] is the dedicated path the window ladders spend
   ~5/6 of their time in: pass i contributes
     a_i^2*B^i + 2*a_i * sum_{j>i} a_j*B^j
   so each symmetric cross product is computed once and doubled — 1.5k^2
   limb products against the multiply's 2k^2.  Front-loading the doubled
   terms relaxes the accumulator invariant to t < 3n (top limb <= 2, up
   to two trailing subtractions), which [reduce_out] absorbs.

   All intermediates live in per-domain {!Scratch} slots, so a
   steady-state [powm_sched] ladder performs its thousands of modular
   operations without allocating a word per iteration.

   The 29-bit window is the engine's only Montgomery form: a context
   holds no second residue radix, and the pre-rewrite 26-bit ladder
   lives in the test-only oracle library, which derives its own
   constants from the modulus. *)

let limb_bits = Nat.limb_bits

(* Engine radix: 29-bit digits.  4 * (2^29 - 1)^2 + carries < 2^62, so a
   column can take four limb products in one 63-bit int. *)
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

(* dst[0..ke-1] <- a * b * Re^{-1} mod n by one fused 2-way CIOS sweep.
   [a] and [b] are ke-digit windows of residues < n; [dst] may alias
   either input (both are consumed before dst is written).  Each pass
   eats b_i and b_{i+1}: quotient digits m0, m1 zero the two bottom
   columns, the inner loop accumulates four products per column
   (< 2^61 with carries) and shifts the window down two digits.
   Previous-digit operands roll through locals to save loads. *)
let cios2_into t (dst : int array) (a : int array) (b : int array) =
  let k = t.ke and nn = t.ne and n' = t.n'e in
  let w = Scratch.get ~slot:Scratch.mont_acc (k + 2) in
  Array.fill w 0 (k + 1) 0;
  let n0 = Array.unsafe_get nn 0 and n1 = Array.unsafe_get nn 1 in
  let i = ref 0 in
  while !i < k do
    let bi = Array.unsafe_get b !i and bi1 = Array.unsafe_get b (!i + 1) in
    let a0 = Array.unsafe_get a 0 in
    let t0 = Array.unsafe_get w 0 + (a0 * bi) in
    let m0 = ((t0 land emask) * n') land emask in
    let c = (t0 + (m0 * n0)) lsr elb in
    let a1 = Array.unsafe_get a 1 in
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
    Array.unsafe_set w k (u lsr (2 * elb));
    i := !i + 2
  done;
  reduce_out t dst w 0

(* dst[0..ke-1] <- a^2 * Re^{-1} mod n: the dedicated squaring sweep.
   Pass pair (i, i+1) adds  a_i^2*B^i + 2*a_i*sum_{j>i} a_j*B^j  (and
   the same one digit up), so each symmetric cross product is computed
   once and doubled: 1.5k^2 limb products against the multiply's 2k^2.
   Column layout per pass: columns below i carry only quotient terms
   (loop A, two products); columns i, i+1, i+2 pick up the diagonal
   a_i^2, the doubled neighbour and a_{i+1}^2 (peeled); columns above
   run the full four-product form (loop B).  The last pass (i = k-2)
   has no loop B and its diagonal tail lands in column k, so it is
   peeled out of the while loop entirely.  [dst] may alias [a]. *)
let sqr2_into t (dst : int array) (a : int array) =
  let k = t.ke and nn = t.ne and n' = t.n'e in
  let w = Scratch.get ~slot:Scratch.mont_acc (k + 2) in
  Array.fill w 0 (k + 1) 0;
  let n0 = Array.unsafe_get nn 0 and n1 = Array.unsafe_get nn 1 in
  let i = ref 0 in
  while !i < k - 2 do
    let i0 = !i in
    let ai = Array.unsafe_get a i0 and ai1 = Array.unsafe_get a (i0 + 1) in
    let ai2 = ai * 2 and ai12 = ai1 * 2 in
    let m0, m1, c0 =
      if i0 = 0 then begin
        (* first pass: w = 0 and the diagonal terms sit in columns 0, 1 *)
        let t0 = ai * ai in
        let m0 = ((t0 land emask) * n') land emask in
        let c = (t0 + (m0 * n0)) lsr elb in
        let t1 = (ai2 * ai1) + (m0 * n1) + c in
        let m1 = ((t1 land emask) * n') land emask in
        (m0, m1, (t1 + (m1 * n0)) lsr elb)
      end
      else begin
        let t0 = Array.unsafe_get w 0 in
        let m0 = ((t0 land emask) * n') land emask in
        let c = (t0 + (m0 * n0)) lsr elb in
        let t1 = Array.unsafe_get w 1 + (m0 * n1) + c in
        let m1 = ((t1 land emask) * n') land emask in
        (m0, m1, (t1 + (m1 * n0)) lsr elb)
      end
    in
    let carry = ref c0 in
    let nprev = ref n1 in
    (* loop A: quotient-only columns below the diagonal *)
    for c = 2 to i0 - 1 do
      let nc = Array.unsafe_get nn c in
      let u = Array.unsafe_get w c + (m0 * nc) + (m1 * !nprev) + !carry in
      Array.unsafe_set w (c - 2) (u land emask);
      carry := u lsr elb;
      nprev := nc
    done;
    (* peel the diagonal columns *)
    if i0 = 0 then begin
      let n2 = Array.unsafe_get nn 2 in
      let u =
        (ai1 * ai1) + (ai2 * Array.unsafe_get a 2) + (m0 * n2) + (m1 * n1)
        + !carry
      in
      Array.unsafe_set w 0 (u land emask);
      carry := u lsr elb;
      nprev := n2
    end
    else begin
      let nc = Array.unsafe_get nn i0 in
      let u =
        Array.unsafe_get w i0 + (ai * ai) + (m0 * nc) + (m1 * !nprev) + !carry
      in
      Array.unsafe_set w (i0 - 2) (u land emask);
      carry := u lsr elb;
      nprev := nc;
      let nc = Array.unsafe_get nn (i0 + 1) in
      let u =
        Array.unsafe_get w (i0 + 1) + (ai2 * ai1) + (m0 * nc) + (m1 * !nprev)
        + !carry
      in
      Array.unsafe_set w (i0 - 1) (u land emask);
      carry := u lsr elb;
      nprev := nc;
      let nc = Array.unsafe_get nn (i0 + 2) in
      let u =
        Array.unsafe_get w (i0 + 2) + (ai1 * ai1)
        + (ai2 * Array.unsafe_get a (i0 + 2))
        + (m0 * nc) + (m1 * !nprev) + !carry
      in
      Array.unsafe_set w i0 (u land emask);
      carry := u lsr elb;
      nprev := nc
    end;
    (* loop B: doubled cross products above the diagonal *)
    let aprev = ref (Array.unsafe_get a (i0 + 2)) in
    for c = i0 + 3 to k - 1 do
      let ac = Array.unsafe_get a c and nc = Array.unsafe_get nn c in
      let u =
        Array.unsafe_get w c + (ai2 * ac) + (ai12 * !aprev)
        + (m0 * nc) + (m1 * !nprev) + !carry
      in
      Array.unsafe_set w (c - 2) (u land emask);
      carry := u lsr elb;
      aprev := ac;
      nprev := nc
    done;
    let u = Array.unsafe_get w k + (ai12 * !aprev) + (m1 * !nprev) + !carry in
    Array.unsafe_set w (k - 2) (u land emask);
    Array.unsafe_set w (k - 1) ((u lsr elb) land emask);
    Array.unsafe_set w k (u lsr (2 * elb));
    i := i0 + 2
  done;
  (* last pass, i0 = k-2: diagonal in columns k-2, k-1 and tail in k *)
  let i0 = k - 2 in
  let ai = Array.unsafe_get a i0 and ai1 = Array.unsafe_get a (i0 + 1) in
  let ai2 = ai * 2 in
  let t0 = Array.unsafe_get w 0 in
  let m0 = ((t0 land emask) * n') land emask in
  let c = (t0 + (m0 * n0)) lsr elb in
  let t1 = Array.unsafe_get w 1 + (m0 * n1) + c in
  let m1 = ((t1 land emask) * n') land emask in
  let carry = ref ((t1 + (m1 * n0)) lsr elb) in
  let nprev = ref n1 in
  for c = 2 to i0 - 1 do
    let nc = Array.unsafe_get nn c in
    let u = Array.unsafe_get w c + (m0 * nc) + (m1 * !nprev) + !carry in
    Array.unsafe_set w (c - 2) (u land emask);
    carry := u lsr elb;
    nprev := nc
  done;
  let nc = Array.unsafe_get nn (k - 2) in
  let u =
    Array.unsafe_get w (k - 2) + (ai * ai) + (m0 * nc) + (m1 * !nprev) + !carry
  in
  Array.unsafe_set w (k - 4) (u land emask);
  carry := u lsr elb;
  nprev := nc;
  let nc = Array.unsafe_get nn (k - 1) in
  let u =
    Array.unsafe_get w (k - 1) + (ai2 * ai1) + (m0 * nc) + (m1 * !nprev)
    + !carry
  in
  Array.unsafe_set w (k - 3) (u land emask);
  carry := u lsr elb;
  nprev := nc;
  let u = Array.unsafe_get w k + (ai1 * ai1) + (m1 * !nprev) + !carry in
  Array.unsafe_set w (k - 2) (u land emask);
  Array.unsafe_set w (k - 1) ((u lsr elb) land emask);
  Array.unsafe_set w k (u lsr (2 * elb));
  reduce_out t dst w 0

let create (modulus : Z.t) : t =
  if Z.sign modulus <= 0 then invalid_arg "Montgomery.create: modulus <= 0";
  if Z.is_even modulus then invalid_arg "Montgomery.create: modulus must be odd";
  let n = Z.to_nat modulus in
  (* The window is rounded up to an even width >= 4: the 2-way sweeps
     consume digit pairs, and the squaring peels its last pass.  Padding
     digits of n are zero, which the sweeps tolerate (t < 2n still fits
     k+1 digits). *)
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
      sqr2_into t buf buf;
      if (e lsr i) land 1 = 1 then double_mod ()
    done;
    { t with one_e; r2e = Array.sub buf 0 ke }
  end

let mont_mul_into t (dst : int array) (a : int array) (b : int array) =
  cios2_into t dst a b

let mont_sqr_into t (dst : int array) (a : int array) =
  sqr2_into t dst a

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
  cios2_into t w w t.r2e;
  w

(* Exit conversion (one REDC, untickled, as in [powm_sched]). *)
let of_window t (w : window) : Z.t = Z.of_nat (redc_e t w)

let one_window t : window = Array.copy t.one_e

let mul_window t (a : window) (b : window) : window =
  let d = Array.make t.ke 0 in
  tick t;
  cios2_into t d a b;
  d

let sqr_window t (a : window) : window =
  let d = Array.make t.ke 0 in
  tick t;
  sqr2_into t d a;
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
    sqr2_into t b2 bm;
    for j = 1 to (max_odd - 1) / 2 do
      tbl.(j) <- mul_window t tbl.(j - 1) b2
    done
  end;
  tbl

(* Replay a schedule's ops tape against a built table into a fresh
   accumulator ({!Wexp.replay_cost} ticks); the sweeps update the
   accumulator in place and never write the table. *)
let replay t (tbl : window array) (s : Wexp.t) : window =
  let acc = Array.copy tbl.(s.Wexp.first lsr 1) in
  Array.iter
    (fun op ->
      tick t;
      if op < 0 then sqr2_into t acc acc
      else cios2_into t acc acc tbl.(op lsr 1))
    s.Wexp.ops;
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

(* Multi-powm: serve k bases — each with its OWN context/modulus — through
   ONE shared schedule, walking the ops tape once per window digit
   instead of once per query.  Each query's Montgomery state (converted
   base, odd-powers table, accumulator) is heap-resident, exactly as in
   [powm_sched]; only the kernel sweeps touch {!Scratch}, and a sweep's
   scratch use is transient within the call, so interleaving the k
   states per tape entry is safe.

   Queries are interleaved in cache-sized GROUPS rather than all at
   once: a query's resident window state is roughly
   (half + 3) * ke * 8 bytes (odd-powers table, accumulator, b^2), and
   interleaving more states than fit L1d evicts each one between its
   own consecutive operations, turning every kernel sweep's operand
   loads into misses — measured as a 5-8% LOSS at k = 16 on 1331-bit
   moduli.  Capping the per-group working set keeps the interleave at
   parity with the sequential ladder for any k.

   Per-context tick counts are identical to k sequential [powm_sched]
   calls ({!Wexp.cost} s + 1 each), so attached counters and the
   predicted=measured bench assertions see no difference; group order
   only permutes work BETWEEN independent queries, never within one.
   Raises [Invalid_argument] on a ts/bases length mismatch. *)
let batch_group_bytes = 24 * 1024

(* Below ~32 engine limbs (~900-bit moduli) one kernel sweep is so
   cheap (~150 ns) that the interleave's per-digit indirections —
   context, accumulator and table loads resolved per tape entry
   instead of hoisted once per query — cost a measured 5-9% of the
   sweep itself, while walking the shared tape once saves only the
   [Array.iter] dispatch.  Such queries run as singleton groups
   through the plain ladder; interleaving engages where sweeps
   dominate. *)
let interleave_min_ke = 32

let powm_sched_batch (ts : t array) (bases : Z.t array) (s : Wexp.t)
    : Z.t array =
  let k = Array.length ts in
  if Array.length bases <> k then
    invalid_arg "Montgomery.powm_sched_batch: ts/bases length mismatch";
  if s.Wexp.first = 0 then
    Array.map
      (fun t -> if Z.equal t.modulus Z.one then Z.zero else Z.one)
      ts
  else begin
    let half = (s.Wexp.max_odd - 1) / 2 in
    let out = Array.make k Z.zero in
    (* One L1-resident group: queries [q0, q0 + gk). *)
    let run_group q0 gk =
      (* Convert each base and seed its odd-powers table (tbl.(0) = base). *)
      let tbls =
        Array.init gk (fun g ->
            let t = ts.(q0 + g) in
            let reduced = Z.to_nat (Z.erem bases.(q0 + g) t.modulus) in
            let bm = widen t reduced in
            tick t;
            cios2_into t bm bm t.r2e;
            Array.make (half + 1) bm)
      in
      if s.Wexp.max_odd >= 3 then begin
        let b2s =
          Array.init gk (fun g ->
              let t = ts.(q0 + g) in
              let b2 = Array.make t.ke 0 in
              tick t;
              sqr2_into t b2 tbls.(g).(0);
              b2)
        in
        for j = 1 to half do
          for g = 0 to gk - 1 do
            let t = ts.(q0 + g) in
            let e = Array.make t.ke 0 in
            tick t;
            cios2_into t e tbls.(g).(j - 1) b2s.(g);
            tbls.(g).(j) <- e
          done
        done
      end;
      let accs =
        Array.init gk (fun g -> Array.copy tbls.(g).(s.Wexp.first lsr 1))
      in
      (* The shared tape, walked once per group: every query in the
         group applies this digit's operation before the tape
         advances. *)
      Array.iter
        (fun op ->
          for g = 0 to gk - 1 do
            let t = ts.(q0 + g) in
            tick t;
            if op < 0 then sqr2_into t accs.(g) accs.(g)
            else cios2_into t accs.(g) accs.(g) tbls.(g).(op lsr 1)
          done)
        s.Wexp.ops;
      for g = 0 to gk - 1 do
        out.(q0 + g) <- Z.of_nat (redc_e ts.(q0 + g) accs.(g))
      done
    in
    let q0 = ref 0 in
    while !q0 < k do
      if ts.(!q0).ke < interleave_min_ke then begin
        (* Singleton group: same ticks, same result, no per-digit
           indirection tax on a sub-microsecond sweep. *)
        out.(!q0) <- powm_sched ts.(!q0) bases.(!q0) s;
        incr q0
      end
      else begin
        (* Grow the group while its summed window state stays in
           budget (always admitting at least one query). *)
        let bytes = ref 0 and gk = ref 0 in
        while
          !q0 + !gk < k
          && ts.(!q0 + !gk).ke >= interleave_min_ke
          && (!gk = 0
             || !bytes + ((half + 3) * ts.(!q0 + !gk).ke * 8)
                <= batch_group_bytes)
        do
          bytes := !bytes + ((half + 3) * ts.(!q0 + !gk).ke * 8);
          incr gk
        done;
        run_group !q0 !gk;
        q0 := !q0 + !gk
      end
    done;
    out
  end

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
  cios2_into t aw aw bw;
  tick t;
  cios2_into t aw aw t.r2e;
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
          cios2_into t acc acc e
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
        sqr2_into t acc acc
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
      sqr2_into t x x
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
      sqr2_into t acc acc;
      if d.(j) <> 0 then begin
        tick t;
        cios2_into t acc acc fb.ctable.(d.(j))
      end
    done;
    of_window t acc
  end
