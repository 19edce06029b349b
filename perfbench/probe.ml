(* Host-speed probe and the normalization of the end-to-end latencies
   and throughput (setup_s stays raw wall time: see README.md).

   The benchmark's host is a shared 2-vCPU VM whose speed drifts: the
   same bignum-shaped loop takes anywhere from 1x to 2x its fastest
   time, over seconds and over tens of minutes, and the two vCPUs drift
   independently.  A median over a run cannot remove a drift that
   outlasts the run, so raw wall-clock medians of identical work spread
   by 20-30% between runs.

   The probe is a fixed kernel owned by the benchmark (a 24x24-limb
   schoolbook product, the shape of the bignum kernels, no allocation),
   run on the same domain as the work it calibrates, right beside it:
   around every round and update on round_fresh; on serve_churn at the
   start of every batch the Service worker drains, and around every
   update the driver submits.  A measured interval is then
   reported at the reference speed, the speed at which one probe takes
   [nominal_s]:

     reported = wall x nominal_s / (median probe time beside the interval)

   The kernel shares no code with the library, so a change to the
   program moves reported times exactly as it moves wall time at a fixed
   host speed.  What this hides: contention the program itself adds on
   the probe's vCPU (say, a new background domain) slows the probe too. *)

let iterations = 5000

(* One probe at the reference speed.  On a shared 2-vCPU Xeon host a
   probe took 4-5 ms in calm spells and 8-9 ms in busy ones. *)
let nominal_s = 0.005

let n = 24

type t = {
  a : int array;
  b : int array;
  acc : int array;
  starts : Stats.Buf.t;        (* probe start times, increasing *)
  durations : Stats.Buf.t;
}

let create () =
  { a = Array.make n 0; b = Array.make n 0; acc = Array.make (2 * n) 0;
    starts = Stats.Buf.create (); durations = Stats.Buf.create () }

(* The kernel, [iters] products; it allocates nothing. *)
let kernel t iters =
  for i = 0 to n - 1 do
    t.a.(i) <- ((i * 7919) + 17) land 0x1fffffff;
    t.b.(i) <- ((i * 104729) + 3) land 0x1fffffff
  done;
  Array.fill t.acc 0 (2 * n) 0;
  for _ = 1 to iters do
    for i = 0 to n - 1 do
      let ai = t.a.(i) in
      for j = 0 to n - 1 do
        t.acc.(i + j) <- (t.acc.(i + j) + (ai * t.b.(j))) land 0x3fffffffffff
      done
    done;
    t.a.(0) <- t.acc.(n) land 0x1fffffff
  done;
  t.acc.(n)

(* Run one probe and record it.  Only one domain may use a given [t]. *)
let sample t =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel t iterations));
  let d = Unix.gettimeofday () -. t0 in
  Stats.Buf.add t.starts t0;
  Stats.Buf.add t.durations d

let count t = t.starts.Stats.Buf.len

(* Probes count as beside an interval when they start within this
   distance of it. *)
let window_s = 0.05

(* Reference-speed over measured-speed ratio for [t0, t1]: from the
   median of the probes beside it, or the nearest probe if none is. *)
let factor t ~t0 ~t1 =
  let starts = Stats.Buf.to_array t.starts and durs = Stats.Buf.to_array t.durations in
  if Array.length starts = 0 then invalid_arg "Probe.factor: no probes";
  let beside = Stats.Buf.create () in
  Array.iteri
    (fun i s -> if s >= t0 -. window_s && s <= t1 +. window_s then Stats.Buf.add beside durs.(i))
    starts;
  let d =
    if beside.Stats.Buf.len > 0 then Stats.median (Stats.Buf.to_array beside)
    else begin
      let best = ref 0 in
      let dist s = Float.min (Float.abs (s -. t0)) (Float.abs (s -. t1)) in
      Array.iteri (fun i s -> if dist s < dist starts.(!best) then best := i) starts;
      durs.(!best)
    end
  in
  nominal_s /. d

(* [t1 - t0] at the reference speed. *)
let normalize t ~t0 ~t1 = (t1 -. t0) *. factor t ~t0 ~t1

(* Intervals given by their start and end times: each at the reference
   speed, and each as wall time. *)
let intervals t starts ends =
  let s = Stats.Buf.to_array starts and e = Stats.Buf.to_array ends in
  Array.mapi (fun i t0 -> normalize t ~t0 ~t1:e.(i)) s,
  Array.mapi (fun i t0 -> e.(i) -. t0) s

(* [t1 - t0] at the reference speed, for a long interval: each stretch
   between consecutive probes is scaled by the probe that starts it
   (the first probe also covers the time before it). *)
let integrate t ~t0 ~t1 =
  let starts = Stats.Buf.to_array t.starts and durs = Stats.Buf.to_array t.durations in
  let k = Array.length starts in
  if k = 0 then invalid_arg "Probe.integrate: no probes";
  let total = ref 0. in
  for i = 0 to k - 1 do
    let lo = if i = 0 then t0 else Float.max t0 starts.(i) in
    let hi = if i = k - 1 then t1 else Float.min t1 starts.(i + 1) in
    if hi > lo then total := !total +. ((hi -. lo) *. nominal_s /. durs.(i))
  done;
  !total

let median_ms t = 1e3 *. Stats.median (Stats.Buf.to_array t.durations)
