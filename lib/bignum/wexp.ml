(* Sliding-window exponent recoding for the Montgomery exponentiation
   ladders.

   A schedule is computed once from the exponent's limbs in one scan —
   each window is read out of at most two limbs, so the scan never pays
   the per-bit div/mod that [Z.testbit] does — and is then executed by
   an engine as runs of modular squarings, each closed by one
   multiplication by a precomputed odd power of the base.  Because the
   Gentry–Ramzan server raises every query's base to the SAME database
   exponent e, [Gr.Server] recodes e once per epoch and replays the
   schedule for every query. *)

type t = {
  width : int;  (* window width in bits, 1..7 *)
  first : int;  (* odd value of the leading window; 0 iff the exponent is 0 *)
  max_odd : int;  (* largest odd multiplier used: the table holds base^1 .. base^max_odd *)
  wins : int array;
    (* (gap lsl 8) lor v per later window: gap squarings, then multiply
       by base^v (v odd, < 2^7) *)
  tail : int;  (* squarings after the last window *)
  ebits : int;  (* significant bits of the exponent *)
}

(* Wider windows trade table-build multiplications (2^(w-1) entries)
   against one multiplication saved per ~(w+1) exponent bits; these
   break-evens follow the usual sliding-window analysis (HAC 14.85). *)
let width_for nb =
  if nb <= 8 then 1
  else if nb <= 24 then 2
  else if nb <= 80 then 3
  else if nb <= 240 then 4
  else if nb <= 768 then 5
  else if nb <= 2304 then 6
  else 7

(* Bit length and trailing-zero count of every window value below 2^7:
   the scan reads them instead of branching bit by bit. *)
let bit_len =
  let rec len v = if v = 0 then 0 else 1 + len (v lsr 1) in
  Array.init 128 len
let low_zeros = Array.init 128 (fun v -> if v = 0 then 0 else bit_len.(v land -v) - 1)

let recode ?width (e : Nat.t) : t =
  let nb = Nat.numbits e in
  if nb = 0 then
    { width = 1; first = 0; max_odd = 1; wins = [||]; tail = 0; ebits = 0 }
  else begin
    let w =
      match width with
      | None -> width_for nb
      | Some w when 1 <= w && w <= 7 -> w
      | Some _ -> invalid_arg "Wexp.recode: width out of [1, 7]"
    in
    (* Bits [lo, lo + len) of e for len <= 7 < limb_bits: at most two
       limbs, the second only when the field straddles a limb edge. *)
    let field lo len =
      let li = lo / Nat.limb_bits and off = lo mod Nat.limb_bits in
      let x = Array.unsafe_get e li lsr off in
      let x =
        if off + len > Nat.limb_bits then
          x lor (Array.unsafe_get e (li + 1) lsl (Nat.limb_bits - off))
        else x
      in
      x land ((1 lsl len) - 1)
    in
    (* Up to [w] bits from bit [i] down: the raw window topped at [i]. *)
    let span i = if w <= i + 1 then w else i + 1 in
    let l0 = span (nb - 1) in
    let c0 = field (nb - l0) l0 in
    let first = c0 lsr low_zeros.(c0) in
    (* A full-width window ends on a zero or the next window, so window
       tops sit at least [w] bits apart: ceil(nb / w) bounds the count. *)
    let wins = Array.make ((nb + w - 1) / w) 0 in
    let n = ref 0 and max_odd = ref first and gap = ref 0 in
    let i = ref (nb - 1 - (l0 - low_zeros.(c0))) in
    while !i >= 0 do
      (* The next bits down from [i] are all zero, or the top set bit
         among them starts a window, trailing zeros stripped so every
         multiplier stays odd. *)
      let l = span !i in
      let c = field (!i - l + 1) l in
      let lz = l - Array.unsafe_get bit_len c in
      if lz = l then begin
        gap := !gap + l;
        i := !i - l
      end
      else begin
        let top = !i - lz in
        let l = span top in
        let c = if lz = 0 then c else field (top - l + 1) l in
        let v = c lsr Array.unsafe_get low_zeros c in
        let len = l - Array.unsafe_get low_zeros c in
        if v > !max_odd then max_odd := v;
        Array.unsafe_set wins !n (((!gap + lz + len) lsl 8) lor v);
        incr n;
        gap := 0;
        i := top - len
      end
    done;
    { width = w; first; max_odd = !max_odd; wins = Array.sub wins 0 !n;
      tail = !gap; ebits = nb }
  end

(* Recode a NEW exponent under an existing schedule's window width: the
   incremental-update path rebuilds the cached database schedule after
   a CRT fix-up, and pinning the width keeps the replay-cost profile
   stable across epochs (a near-boundary bit-length change would
   otherwise flip the width and shift predicted costs mid-run). *)
let refresh (old : t) (e : Nat.t) : t = recode ~width:old.width e

(* The ladder after the leading window: per later window its run of
   squarings, then its multiplication; then the trailing squarings. *)
let iter t ~square ~multiply =
  Array.iter
    (fun wv ->
      square (wv lsr 8);
      multiply (wv land 0xff))
    t.wins;
  square t.tail

(* Bit position of the leading window's low end: the squarings a replay
   performs after it, [ebits] less the leading window's own length. *)
let lead_pos t = t.ebits - bit_len.(t.first)

(* Cost of replaying a schedule against an odd-powers table that already
   exists (fixed base): one squaring per bit below the leading window
   plus one multiplication per later window. *)
let replay_cost t = if t.first = 0 then 0 else lead_pos t + Array.length t.wins

(* Modular multiplications spent building an odd-powers table
   base^1, base^3, .., base^max_odd: one squaring for base^2 plus one
   product per further odd entry.  Zero when only base^1 is needed. *)
let table_cost ~max_odd = if max_odd >= 3 then 1 + ((max_odd - 1) / 2) else 0

(* Modular multiplications an engine performs replaying this schedule,
   odd-powers table included. *)
let cost t = if t.first = 0 then 0 else table_cost ~max_odd:t.max_odd + replay_cost t

(* ------------------------------------------------------------------ *)
(* Positioned sliding windows, for Straus/Shamir interleaving.         *)
(* ------------------------------------------------------------------ *)

(* The same windows as [recode], positioned: (pos, v) pairs with v odd,
   such that e = sum_k v_k * 2^pos_k and the windows' bit spans are
   disjoint.  An interleaved-exponentiation engine multiplies by base^v
   when its shared squaring ladder reaches bit [pos].  Each window sits
   its gap below the previous one. *)
let windows ?width (e : Nat.t) : (int * int) array =
  let t = recode ?width e in
  if t.first = 0 then [||]
  else begin
    let pos = ref (lead_pos t) in
    let ws = Array.make (1 + Array.length t.wins) (!pos, t.first) in
    Array.iteri
      (fun k wv ->
        pos := !pos - (wv lsr 8);
        ws.(k + 1) <- (!pos, wv land 0xff))
      t.wins;
    ws
  end

(* Largest odd multiplier across a window decomposition (sizes the
   odd-powers table an engine must build). *)
let windows_max_odd ws = Array.fold_left (fun m (_, v) -> max m v) 1 ws

(* Exact group multiplications of the interleaved (Straus/Shamir) ladder
   over two window streams, tables NOT included: the ladder starts at the
   highest window position across both streams (everything above it is
   squarings of 1, skipped), squares once per remaining bit position, and
   pays one multiplication per window beyond the initialising one. *)
let straus_cost ws1 ws2 =
  let n1 = Array.length ws1 and n2 = Array.length ws2 in
  if n1 = 0 && n2 = 0 then 0
  else begin
    (* First multiplication happens at the larger of the two leading
       window *positions* (the low bit of each stream's top window);
       everything above it is a squaring of 1 and is skipped. *)
    let p0 =
      max
        (if n1 = 0 then -1 else fst ws1.(0))
        (if n2 = 0 then -1 else fst ws2.(0))
    in
    p0 + (n1 + n2 - 1)
  end

(* ------------------------------------------------------------------ *)
(* Lim-Lee fixed-base comb geometry.                                   *)
(* ------------------------------------------------------------------ *)

(* A comb splits an exponent of at most [bits] bits into [teeth] rows of
   [cols] columns (row i holds bits i*cols .. i*cols + cols - 1).  The
   engine precomputes T[u] = base^(sum_i u_i * 2^(i*cols)) for every
   tooth pattern u, after which one exponentiation is [cols - 1]
   squarings plus one table multiplication per nonzero column digit. *)
type comb = { teeth : int; cols : int; bits : int }

let make_comb ~bits ~teeth =
  if bits < 1 then invalid_arg "Wexp.make_comb: bits < 1";
  if teeth < 1 || teeth > 16 then invalid_arg "Wexp.make_comb: teeth out of [1, 16]";
  let cols = (bits + teeth - 1) / teeth in
  { teeth; cols; bits = cols * teeth }

(* Tooth count balancing table size (2^h entries, built once per group)
   against per-exponentiation work (~bits/h squarings): h = 8 keeps the
   table at 256 entries while cutting the ladder by 8x, the knee of the
   curve for the 160..256-bit Schnorr orders used here. *)
let teeth_for bits = if bits <= 32 then 2 else if bits <= 96 then 4 else 8

(* Column digits of an exponent under this comb, digit j built from bits
   j, j+cols, j+2*cols, ...  The exponent must fit in [c.bits] bits. *)
let comb_digits (c : comb) (e : Nat.t) : int array =
  let nb = Nat.numbits e in
  if nb > c.bits then invalid_arg "Wexp.comb_digits: exponent too wide for comb";
  let d = Array.make c.cols 0 in
  Array.iteri
    (fun li limb ->
      let base_idx = li * Nat.limb_bits in
      let top = min Nat.limb_bits (nb - base_idx) in
      for b = 0 to top - 1 do
        if (limb lsr b) land 1 = 1 then begin
          let idx = base_idx + b in
          let row = idx / c.cols and col = idx mod c.cols in
          d.(col) <- d.(col) lor (1 lsl row)
        end
      done)
    e;
  d

(* Exact group multiplications executing a comb exponentiation against a
   prebuilt table: the ladder starts at the highest nonzero column,
   squares once per lower column, and multiplies once per further nonzero
   digit.  Zero for e = 0. *)
let comb_cost (c : comb) (e : Nat.t) =
  let d = comb_digits c e in
  let topj = ref (-1) in
  let nz = ref 0 in
  Array.iteri
    (fun j v ->
      if v <> 0 then begin
        incr nz;
        if j > !topj then topj := j
      end)
    d;
  if !nz = 0 then 0 else !topj + (!nz - 1)

(* One-time cost of building a comb's 2^teeth-entry table for a base:
   (teeth - 1) * cols squarings raise the base to each row's offset, and
   every multi-row pattern costs one product. *)
let comb_table_cost (c : comb) =
  ((c.teeth - 1) * c.cols) + ((1 lsl c.teeth) - 1 - c.teeth)
