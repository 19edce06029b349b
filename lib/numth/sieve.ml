(* Small-prime machinery: Eratosthenes sieve and enumerations, and the
   segment sieve under every prime search.  The PIR database needs "the
   first k primes starting at 3" (paper §VI-B). *)

open Lbq_bignum

(* All primes < limit, ascending. *)
let primes_below (limit : int) : int list =
  if limit <= 2 then []
  else begin
    let comp = Bytes.make limit '\x00' in
    let out = ref [] in
    for i = 2 to limit - 1 do
      if Bytes.get comp i = '\x00' then begin
        out := i :: !out;
        let j = ref (i * i) in
        while !j < limit do
          Bytes.set comp !j '\x01';
          j := !j + i
        done
      end
    done;
    List.rev !out
  end

(* The first [k] primes >= [from] (default 2). *)
let first_primes ?(from = 2) (k : int) : int list =
  if k <= 0 then []
  else begin
    (* Over-allocate the sieve bound using p_n < n (ln n + ln ln n) + from. *)
    let rec collect limit =
      let ps = List.filter (fun p -> p >= from) (primes_below limit) in
      if List.length ps >= k then
        List.filteri (fun i _ -> i < k) ps
      else collect (limit * 2)
    in
    collect (max 64 (16 * k))
  end

(* ------------------------------------------------------------------ *)
(* Segment sieve over an arithmetic walk.                              *)
(* ------------------------------------------------------------------ *)

(* A prime search walks x, x + step, x + 2*step, ... and tests only the
   values that no small prime divides.  One segment of that walk is
   sieved at a time: for each sieving prime r the positions j where r
   divides a value form a single class mod r, so one Eratosthenes pass
   (every r-th byte from the first hit) marks them all.  The residues
   are taken straight from the limbs per segment and the class start is
   one small-int inverse, so a segment allocates nothing. *)

let limit = 1 lsl 16

(* Odd primes below [limit], ascending.  Read-only after module
   initialisation, so searches on several domains share it safely. *)
let odd_primes = Array.of_list (List.tl (primes_below limit))

type form = { cap : int; add : int; mul : Nat.t }

(* [a] mod [r] by Horner over the base-2^26 limbs, two limbs per
   division: with b = 2^26 mod r < 2^16, (acc*b + hi)*b + lo < 2^50. *)
let residue (a : Nat.t) r =
  let n = Array.length a in
  let b = Nat.base mod r in
  let acc = ref (if n land 1 = 1 then Array.unsafe_get a (n - 1) mod r else 0) in
  let i = ref (n - 1 - (n land 1)) in
  while !i > 0 do
    acc :=
      (((!acc * b) + Array.unsafe_get a !i) * b + Array.unsafe_get a (!i - 1))
      mod r;
    i := !i - 2
  done;
  !acc

(* [d]^-1 mod the odd prime [r], for 0 < d < r: Euclid on ints. *)
let inverse d r =
  let rec go r0 r1 s0 s1 =
    if r1 = 0 then s0
    else begin
      let q = r0 / r1 in
      go r1 (r0 - (q * r1)) s1 (s0 - (q * s1))
    end
  in
  let s = go d r 1 0 in
  if s < 0 then s + r else s

(* Mark every j < len where r divides add + mul * (x + step * j), given
   [xr] = x mod r.  When mul * step vanishes mod r the form is constant
   mod r along the walk: all marked or none. *)
let rec mark_forms marks len r xr step = function
  | [] -> ()
  | f :: rest ->
    if r < f.cap then begin
      let v = residue f.mul r in
      let value = (f.add + (v * xr)) mod r in
      let d = v * (step mod r) mod r in
      if d <> 0 then begin
        let j = ref ((r - value) mod r * inverse d r mod r) in
        while !j < len do
          Bytes.unsafe_set marks !j '\001';
          j := !j + r
        done
      end
      else if value = 0 then Bytes.fill marks 0 len '\001'
    end;
    mark_forms marks len r xr step rest

let segment marks ~start ~step ~len forms =
  if len < 0 || len > Bytes.length marks then
    invalid_arg "Sieve.segment: len out of range";
  if step <= 0 then invalid_arg "Sieve.segment: step <= 0";
  Bytes.fill marks 0 len '\000';
  let top = List.fold_left (fun m f -> max m f.cap) 0 forms in
  let x = Z.to_nat start in
  let n = Array.length odd_primes in
  let i = ref 0 in
  while !i < n && odd_primes.(!i) < top do
    let r = odd_primes.(!i) in
    mark_forms marks len r (residue x r) step forms;
    incr i
  done

(* Smallest odd prime below [limit] dividing [n], if any. *)
let least_odd_factor (n : Z.t) =
  let a = Z.to_nat (Z.abs n) in
  let rec go i =
    if i = Array.length odd_primes then None
    else if residue a odd_primes.(i) = 0 then Some odd_primes.(i)
    else go (i + 1)
  in
  go 0
