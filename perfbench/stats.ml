(* Order statistics over raw per-sample arrays.  Percentiles are read
   from the sorted samples themselves (linear interpolation between
   closest ranks), never from bucketed histograms, whose bucket floors
   read up to 12.5% low. *)

(* [q] in [0, 1]; the same rule as numpy's default ("linear"). *)
let quantile (xs : float array) q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float pos in
  let hi = min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  s.(lo) +. (frac *. (s.(hi) -. s.(lo)))

let median xs = quantile xs 0.5

let sum xs = Array.fold_left ( +. ) 0. xs

(* Growable float buffer: samples are appended in the timed loop and
   read back once at the end. *)
module Buf = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 256 0.; len = 0 }

  let add b x =
    if b.len = Array.length b.data then begin
      let d = Array.make (2 * b.len) 0. in
      Array.blit b.data 0 d 0 b.len;
      b.data <- d
    end;
    b.data.(b.len) <- x;
    b.len <- b.len + 1

  let to_array b = Array.sub b.data 0 b.len
end
