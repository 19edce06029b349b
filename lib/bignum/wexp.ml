(* Sliding-window exponent recoding for the Montgomery exponentiation
   ladders.

   A schedule is computed once from the exponent's limbs — a single pass
   builds an explicit bit table, so the scan never pays the per-bit
   div/mod that [Z.testbit] does — and is then executed by an engine as a
   straight-line sequence of modular squarings and multiplications by
   precomputed odd powers of the base.  Because the Gentry–Ramzan server
   raises every query's base to the SAME database exponent e, [Gr.Server]
   recodes e once at creation and replays the schedule for every query. *)

type t = {
  width : int;  (* window width in bits, 1..7 *)
  first : int;  (* odd value of the leading window; 0 iff the exponent is 0 *)
  max_odd : int;  (* largest odd multiplier used: the table holds base^1 .. base^max_odd *)
  ops : int array;  (* -1 = square; odd v >= 1 = multiply by base^v *)
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

let recode ?width (e : Nat.t) : t =
  let nb = Nat.numbits e in
  if nb = 0 then { width = 1; first = 0; max_odd = 1; ops = [||]; ebits = 0 }
  else begin
    let w =
      match width with
      | None -> width_for nb
      | Some w when 1 <= w && w <= 7 -> w
      | Some _ -> invalid_arg "Wexp.recode: width out of [1, 7]"
    in
    (* Explicit bit table, filled limb by limb, in a Scratch slot: the
       table only lives for this scan, so recoding allocates nothing
       beyond the returned schedule. *)
    let bits = Scratch.get ~slot:Scratch.wexp_bits nb in
    Array.fill bits 0 nb 0;
    Array.iteri
      (fun li limb ->
        let base_idx = li * Nat.limb_bits in
        let top = min Nat.limb_bits (nb - base_idx) in
        for b = 0 to top - 1 do
          if (limb lsr b) land 1 = 1 then
            Array.unsafe_set bits (base_idx + b) 1
        done)
      e;
    let bit i = Array.unsafe_get bits i = 1 in
    (* Window topped at set bit [i]: up to [w] bits scanning down, with
       trailing zeros stripped so every multiplier stays odd. *)
    let max_odd = ref 1 in
    let take i =
      let l = ref (min w (i + 1)) in
      let v = ref 0 in
      for j = i downto i - !l + 1 do
        v := (!v lsl 1) lor (if bit j then 1 else 0)
      done;
      while !v land 1 = 0 do
        v := !v lsr 1;
        decr l
      done;
      if !v > !max_odd then max_odd := !v;
      (!v, !l)
    in
    (* Worst case (w = 1, all bits set): every remaining bit emits one
       squaring and one multiplication.  Staged in a Scratch slot; only
       the trimmed copy below escapes. *)
    let ops = Scratch.get ~slot:Scratch.wexp_ops (2 * nb) in
    let nops = ref 0 in
    let emit v =
      ops.(!nops) <- v;
      incr nops
    in
    let first, l0 = take (nb - 1) in
    let i = ref (nb - 1 - l0) in
    while !i >= 0 do
      if not (bit !i) then begin
        emit (-1);
        decr i
      end
      else begin
        let v, l = take !i in
        for _ = 1 to l do
          emit (-1)
        done;
        emit v;
        i := !i - l
      end
    done;
    { width = w; first; max_odd = !max_odd; ops = Array.sub ops 0 !nops; ebits = nb }
  end

(* Recode a NEW exponent under an existing schedule's window width: the
   incremental-update path refreshes the cached database schedule after
   a CRT fix-up, and pinning the width keeps the replay-cost profile
   stable across epochs (a near-boundary bit-length change would
   otherwise flip the width and shift predicted costs mid-run). *)
let refresh (old : t) (e : Nat.t) : t = recode ~width:old.width e

(* Modular multiplications an engine performs replaying this schedule,
   odd-powers table included: when any multiplier above 1 occurs the
   table costs one squaring (base^2) plus (max_odd - 1)/2 products, and
   then every schedule entry is exactly one squaring or multiplication. *)
let cost t =
  if t.first = 0 then 0
  else
    (if t.max_odd >= 3 then 1 + ((t.max_odd - 1) / 2) else 0)
    + Array.length t.ops

(* The exponent this schedule computes, replayed additively over the
   exponent of the accumulator (test oracle for [recode]). *)
let to_exponent t =
  if t.first = 0 then Z.zero
  else
    Array.fold_left
      (fun acc op ->
        if op < 0 then Z.shift_left acc 1 else Z.add acc (Z.of_int op))
      (Z.of_int t.first) t.ops

(* Cost of replaying a schedule against an odd-powers table that already
   exists (fixed base): the table build is amortised away and only the
   straight-line ops remain. *)
let replay_cost t = if t.first = 0 then 0 else Array.length t.ops

(* Modular multiplications spent building an odd-powers table
   base^1, base^3, .., base^max_odd: one squaring for base^2 plus one
   product per further odd entry.  Zero when only base^1 is needed. *)
let table_cost ~max_odd = if max_odd >= 3 then 1 + ((max_odd - 1) / 2) else 0

(* ------------------------------------------------------------------ *)
(* Positioned sliding windows, for Straus/Shamir interleaving.         *)
(* ------------------------------------------------------------------ *)

(* Same scan as [recode], but instead of a square/multiply tape it emits
   (pos, v) pairs with v odd, such that e = sum_k v_k * 2^pos_k and the
   windows' bit spans are disjoint.  An interleaved-exponentiation engine
   multiplies by base^v when its shared squaring ladder reaches bit
   [pos]. *)
let windows ?width (e : Nat.t) : (int * int) array =
  let t = recode ?width e in
  if t.first = 0 then [||]
  else begin
    (* Replay the tape: track the current shift of the accumulator's
       exponent; every multiply lands a window whose final position is
       pos = (squarings still to come). *)
    let remaining_shifts = Array.fold_left (fun n op -> if op < 0 then n + 1 else n) 0 t.ops in
    let wins = ref [ (remaining_shifts, t.first) ] in
    let sh = ref remaining_shifts in
    Array.iter
      (fun op ->
        if op < 0 then decr sh else wins := (!sh, op) :: !wins)
      t.ops;
    Array.of_list (List.rev !wins)
  end

(* Largest odd multiplier across a window decomposition (sizes the
   odd-powers table an engine must build). *)
let windows_max_odd ws = Array.fold_left (fun m (_, v) -> max m v) 1 ws

(* Exponent computed by a window decomposition (test oracle). *)
let windows_to_exponent ws =
  Array.fold_left
    (fun acc (pos, v) -> Z.add acc (Z.shift_left (Z.of_int v) pos))
    Z.zero ws

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

(* Exponent a digit vector encodes (test oracle for [comb_digits]). *)
let comb_to_exponent (c : comb) (d : int array) =
  let acc = ref Z.zero in
  for j = Array.length d - 1 downto 0 do
    for i = 0 to c.teeth - 1 do
      if (d.(j) lsr i) land 1 = 1 then
        acc := Z.add !acc (Z.shift_left Z.one ((i * c.cols) + j))
    done
  done;
  !acc

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
