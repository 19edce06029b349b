(* Barrett modular reduction with a precomputed reciprocal.

   For a fixed modulus m of k limbs, we precompute mu = floor(B^(2k) / m)
   once; reducing any x < B^(2k) then costs two multiplications instead of a
   full division (HAC 14.42).  Every ladder over an odd protocol modulus
   runs on {!Montgomery}; this context serves the rest (even and
   arbitrary moduli, single products, test oracles). *)

type t = {
  modulus : Z.t;
  m_nat : Nat.t;
  k : int;            (* limb count of the modulus *)
  mu : Nat.t;         (* floor(B^(2k) / m) *)
  mutable tick : int ref option;
    (* optional modular-multiplication counter (performance analysis) *)
}

let limb_bits = Nat.limb_bits

let create modulus =
  if Z.sign modulus <= 0 then invalid_arg "Barrett.create: modulus <= 0";
  let m_nat = Z.to_nat modulus in
  let k = (Nat.numbits m_nat + limb_bits - 1) / limb_bits in
  let b2k = Nat.shift_left Nat.one (2 * k * limb_bits) in
  let mu, _ = Nat.divmod b2k m_nat in
  { modulus; m_nat; k; mu; tick = None }

(* Attach or detach a counter incremented once per modular multiplication
   performed through this context (including squarings inside [powm]). *)
let set_counter t c = t.tick <- c

(* Run [f] with [r] counting this context's modular multiplications. *)
let counting t r f =
  let saved = t.tick in
  t.tick <- Some r;
  Fun.protect ~finally:(fun () -> t.tick <- saved) f

let modulus t = t.modulus

(* Keep only the low [limbs] limbs of [a]. *)
let truncate_limbs (a : Nat.t) (limbs : int) : Nat.t =
  if Array.length a <= limbs then a
  else Nat.normalize (Array.sub a 0 limbs)

(* Reduce x < B^(2k) modulo m. *)
let reduce_nat t (x : Nat.t) : Nat.t =
  if Array.length x > 2 * t.k then
    (* Fall back to division for oversized inputs (rare paths only). *)
    snd (Nat.divmod x t.m_nat)
  else begin
    let q1 = Nat.shift_right x ((t.k - 1) * limb_bits) in
    let q3 = Nat.shift_right (Nat.mul q1 t.mu) ((t.k + 1) * limb_bits) in
    let r1 = truncate_limbs x (t.k + 1) in
    (* Only the low k+1 limbs of q3 * m matter. *)
    let r2 = Nat.mul_low q3 t.m_nat (t.k + 1) in
    let r =
      if Nat.compare r1 r2 >= 0 then Nat.sub r1 r2
      else Nat.sub (Nat.add r1 (Nat.shift_left Nat.one ((t.k + 1) * limb_bits))) r2
    in
    (* At most two final corrections (HAC 14.42 note). *)
    let r = if Nat.compare r t.m_nat >= 0 then Nat.sub r t.m_nat else r in
    let r = if Nat.compare r t.m_nat >= 0 then Nat.sub r t.m_nat else r in
    r
  end

(* Windowed reduction: the same HAC 14.42 dataflow as [reduce_nat], but
   over a double-width product that already lives in the [Scratch]
   window [px] (at least 2k limbs, zero-padded above the product).  The
   shifts become window offsets — q1 is px read at limb k-1 — and the
   q1*mu / q3*m products are accumulated in place with
   [Nat.addmul_off]/[Nat.addmul_off_trunc], so the only allocation left
   on a steady-state mulmod/sqrmod is its (<= k+1 limb) result. *)
let reduce_window t (px : int array) : Nat.t =
  let k = t.k in
  let kp1 = k + 1 in
  (* q2 = q1 * mu with q1 = x >> (k-1) limbs: mu has at most k+2 limbs
     (mu <= B^(k+1), with equality when m = B^(k-1)), so q2 < B^(2k+3). *)
  let qlen = (2 * k) + 3 in
  let qbuf = Scratch.get ~slot:Scratch.barrett_qmu qlen in
  Array.fill qbuf 0 qlen 0;
  let mu = t.mu in
  for j = 0 to Array.length mu - 1 do
    Nat.addmul_off qbuf j px (k - 1) kp1 (Array.unsafe_get mu j)
  done;
  (* r2 = low k+1 limbs of q3 * m, with q3 = q2 >> (k+1) limbs read as a
     window of qbuf (q3 < B^(k+1), so k+1 limbs cover it). *)
  let rbuf = Scratch.get ~slot:Scratch.barrett_r (kp1 + 1) in
  Array.fill rbuf 0 (kp1 + 1) 0;
  let m = t.m_nat in
  for j = 0 to k - 1 do
    Nat.addmul_off_trunc rbuf j qbuf kp1 kp1 (Array.unsafe_get m j) ~cut:kp1
  done;
  (* r = (r1 - r2) mod B^(k+1) with r1 = low k+1 limbs of x: dropping
     the final borrow IS the +B^(k+1) wraparound of [reduce_nat]. *)
  let mask = Nat.mask in
  let borrow = ref 0 in
  for i = 0 to k do
    let d = Array.unsafe_get px i - Array.unsafe_get rbuf i - !borrow in
    Array.unsafe_set rbuf i (d land mask);
    borrow := (d lsr 62) land 1
  done;
  (* At most two final corrections (HAC 14.42 note). *)
  let ge_m () =
    rbuf.(k) <> 0
    ||
    let rec cmp i =
      if i < 0 then true
      else
        let ri = Array.unsafe_get rbuf i and mi = Array.unsafe_get m i in
        if ri > mi then true else if ri < mi then false else cmp (i - 1)
    in
    cmp (k - 1)
  in
  let sub_m () =
    let borrow = ref 0 in
    for i = 0 to k - 1 do
      let d = Array.unsafe_get rbuf i - Array.unsafe_get m i - !borrow in
      Array.unsafe_set rbuf i (d land mask);
      borrow := (d lsr 62) land 1
    done;
    rbuf.(k) <- rbuf.(k) - !borrow
  in
  if ge_m () then sub_m ();
  if ge_m () then sub_m ();
  let len = ref kp1 in
  while !len > 0 && rbuf.(!len - 1) = 0 do
    decr len
  done;
  Array.sub rbuf 0 !len

let to_nat t z = Z.to_nat (Z.erem z t.modulus)
let of_nat (n : Nat.t) : Z.t = Z.of_nat n

let reduce t z = of_nat (reduce_nat t (to_nat t z))

(* Modular multiplication of already-reduced residues: product into the
   scratch window, windowed reduction.  Oversized operands (not actually
   reduced) take the allocating [reduce_nat] path unchanged. *)
let mulmod_nat t a b =
  (match t.tick with Some r -> incr r | None -> ());
  let la = Array.length a and lb = Array.length b in
  if la > t.k || lb > t.k then reduce_nat t (Nat.mul a b)
  else if la = 0 || lb = 0 then Nat.zero
  else begin
    let plen = (2 * t.k) + 1 in
    let px = Scratch.get ~slot:Scratch.barrett_prod plen in
    Nat.mul_into px a la b lb;
    Array.fill px (la + lb) (plen - la - lb) 0;
    reduce_window t px
  end

let mulmod t a b = of_nat (mulmod_nat t (to_nat t a) (to_nat t b))

(* Modular squaring: the half-product scheme of [Nat.sqr_into] computes
   each symmetric cross product once, about half the limb work of a
   general product. *)
let sqrmod_nat t a =
  (match t.tick with Some r -> incr r | None -> ());
  let la = Array.length a in
  if la > t.k then reduce_nat t (Nat.sqr a)
  else if la = 0 then Nat.zero
  else begin
    let plen = (2 * t.k) + 1 in
    let px = Scratch.get ~slot:Scratch.barrett_prod plen in
    Nat.sqr_into px a la;
    Array.fill px (2 * la) (plen - (2 * la)) 0;
    reduce_window t px
  end

let sqrmod t a =
  let a = to_nat t a in
  of_nat (sqrmod_nat t a)

(* 1 mod m as a residue (0 when m = 1). *)
let one_nat t = if Nat.compare Nat.one t.m_nat < 0 then Nat.one else Nat.zero

(* Execute a precomputed sliding-window schedule (see {!Wexp}): tabulate
   the odd powers base^1, base^3, ..., base^max_odd (tbl.(j) holds
   base^(2j+1)), then replay the schedule as squarings and table
   multiplications. *)
let powm_nat_sched t (base_ : Nat.t) (s : Wexp.t) : Nat.t =
  if s.Wexp.first = 0 then one_nat t
  else begin
    let b = reduce_nat t base_ in
    let tbl = Array.make (((s.Wexp.max_odd - 1) / 2) + 1) b in
    if s.Wexp.max_odd >= 3 then begin
      let b2 = sqrmod_nat t b in
      for j = 1 to (s.Wexp.max_odd - 1) / 2 do
        tbl.(j) <- mulmod_nat t tbl.(j - 1) b2
      done
    end;
    let r = ref tbl.(s.Wexp.first lsr 1) in
    Array.iter
      (fun op ->
        if op < 0 then r := sqrmod_nat t !r
        else r := mulmod_nat t !r tbl.(op lsr 1))
      s.Wexp.ops;
    !r
  end

(* Sliding-window modular exponentiation: recode once, then replay. *)
let powm_nat t (base_ : Nat.t) (e : Z.t) : Nat.t =
  if Z.sign e < 0 then invalid_arg "Barrett.powm: negative exponent";
  powm_nat_sched t base_ (Wexp.recode (Z.to_nat e))

let powm t base_ e = of_nat (powm_nat t (to_nat t base_) e)
let powm_sched t base_ s = of_nat (powm_nat_sched t (to_nat t base_) s)

(* The pre-sliding-window engine — fixed 4-bit windows, a dense 16-entry
   table, per-bit [Z.testbit] (a div/mod each) and squarings through the
   general multiplier.  Kept verbatim as the `bench pir` ablation
   baseline; no production caller remains. *)
let powm_fixed4 t (base_z : Z.t) (e : Z.t) : Z.t =
  if Z.sign e < 0 then invalid_arg "Barrett.powm_fixed4: negative exponent";
  let base_ = to_nat t base_z in
  let nb = Z.numbits e in
  if nb = 0 then
    of_nat (if Nat.compare Nat.one t.m_nat < 0 then Nat.one else Nat.zero)
  else begin
    let window = 4 in
    let tbl = Array.make (1 lsl window) Nat.one in
    tbl.(1) <- reduce_nat t base_;
    for i = 2 to (1 lsl window) - 1 do
      tbl.(i) <- mulmod_nat t tbl.(i - 1) tbl.(1)
    done;
    let nwin = (nb + window - 1) / window in
    let r = ref Nat.one in
    for w = nwin - 1 downto 0 do
      for _ = 1 to window do
        r := mulmod_nat t !r !r
      done;
      let nibble = ref 0 in
      for b = window - 1 downto 0 do
        let bit = (w * window) + b in
        nibble := (!nibble lsl 1) lor (if bit < nb && Z.testbit e bit then 1 else 0)
      done;
      if !nibble <> 0 then r := mulmod_nat t !r tbl.(!nibble)
    done;
    of_nat !r
  end
