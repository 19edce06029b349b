(* One reported number, with its unit and the count of samples behind
   it (1 for a single measurement, the round count for a per-round
   mean). *)

type t = { name : string; unit_ : string; value : float; samples : int }

let v ?(samples = 1) name unit_ value = { name; unit_; value; samples }

let ms ?samples name seconds = v ?samples name "ms" (seconds *. 1e3)

(* A p90 needs ten samples beyond it to mean anything.  The smoke mode
   lowers this: it checks that metrics are plumbed, not their values. *)
let p90_min_samples = ref 100

(* Median and p90 of a latency array (seconds), with the p90 only when
   it has enough samples. *)
let percentiles prefix (xs : float array) =
  let n = Array.length xs in
  let p50 = ms ~samples:n (prefix ^ "_p50_ms") (Stats.median xs) in
  if n >= !p90_min_samples then
    [ p50; ms ~samples:n (prefix ^ "_p90_ms") (Stats.quantile xs 0.9) ]
  else [ p50 ]

(* Result of one workload run. *)
type outcome = {
  metrics : t list;
  attempted : int;
  failed : int;
  info : (string * string) list;   (* printed, never a metric *)
}
