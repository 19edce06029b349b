(* Deterministic fault injection for the simulated mobile link.

   The paper's system model (§II-B) routes every protocol message through
   the mobile service provider over 2012-era radio links; those links
   drop, corrupt, truncate, duplicate, delay and reorder frames.  This
   module is the fault model: a per-frame verdict drawn from a seeded
   {!Lbq_crypto.Drbg}, so a whole faulty experiment replays bit-for-bit
   given the same seed — which is what lets the test suite assert exact
   retry counts and byte-identical round results under loss.

   The session protocol is strict request/response (lockstep), so the
   verdicts map onto that shape:

   - [Drop]      — the frame never arrives; the sender times out.
   - [Corrupt]   — one bit flips in flight; the CRC catches it and the
                   receiver discards the frame, so the sender times out.
   - [Truncate]  — a prefix arrives; same outcome as corruption.
   - [Reorder]   — the frame arrives outside the receive window (late /
                   out of order) and is discarded as stale; the sender
                   times out.  In lockstep this is indistinguishable from
                   a drop at the receiver (same verdict), but it is its
                   own config rate because the wire saw the bytes.
   - [Duplicate] — the frame arrives twice; the receiver uses the first
                   copy, the second burns air time and SP log space only.
   - [Spike]     — the frame arrives after an extra latency spike.

   At most one fault fires per frame: a single uniform draw is compared
   against the cumulative config probabilities, so the total per-frame
   fault rate is the sum of the per-kind rates. *)

module Drbg = Lbq_crypto.Drbg

type config = {
  drop : float;
  corrupt : float;
  truncate : float;
  duplicate : float;
  reorder : float;
  spike : float;
  spike_s : float;   (* extra one-way seconds when a spike fires *)
}

let calm =
  { drop = 0.; corrupt = 0.; truncate = 0.; duplicate = 0.; reorder = 0.;
    spike = 0.; spike_s = 0. }

let check_config c =
  let ps = [ c.drop; c.corrupt; c.truncate; c.duplicate; c.reorder; c.spike ] in
  if List.exists (fun p -> p < 0. || p > 1.) ps then
    invalid_arg "Chaos: fault probabilities must lie in [0, 1]";
  if List.fold_left ( +. ) 0. ps > 1. then
    invalid_arg "Chaos: fault probabilities must sum to <= 1";
  if c.spike_s < 0. then invalid_arg "Chaos: spike_s < 0";
  c

(* Drop + bit-flip corruption only, p/2 each: the profile the resilience
   tests run at ("p = 0.1 drop+corruption"). *)
let drop_corrupt ~p =
  check_config { calm with drop = p /. 2.; corrupt = p /. 2. }

(* All six fault kinds, total per-frame fault rate p (bench sweeps);
   a spike adds 0.25 s. *)
let mixed ~p () =
  check_config
    { drop = p *. 0.35; corrupt = p *. 0.25; truncate = p *. 0.10;
      duplicate = p *. 0.10; reorder = p *. 0.10; spike = p *. 0.10;
      spike_s = 0.25 }

type t = { config : config; drbg : Drbg.t }

let create ?(config = calm) ~seed () =
  let config = check_config config in
  { config; drbg = Drbg.create ~domain:"lbq-chaos" ~seed () }

let config t = t.config

(* The fate of one frame. *)
type verdict = {
  delivered : string option;  (* [None]: no usable copy arrives *)
  copies : int;               (* wire transmissions (2 on duplicate) *)
  extra_s : float;            (* added latency (spikes) *)
}

(* One uniform draw in [0, 1) with 2^30 granularity. *)
let uniform t = float_of_int (Drbg.int t.drbg 0x4000_0000) /. 1073741824.

let flip_bit t (bytes : string) : string =
  if String.length bytes = 0 then bytes
  else begin
    let i = Drbg.int t.drbg (String.length bytes) in
    let bit = Drbg.int t.drbg 8 in
    let b = Bytes.of_string bytes in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
    Bytes.to_string b
  end

let truncate_bytes t (bytes : string) : string =
  if String.length bytes = 0 then bytes
  else String.sub bytes 0 (Drbg.int t.drbg (String.length bytes))

let next t (bytes : string) : verdict =
  let c = t.config in
  let u = uniform t in
  let deliver = { delivered = Some bytes; copies = 1; extra_s = 0. } in
  if u < c.drop then { delivered = None; copies = 1; extra_s = 0. }
  else if u < c.drop +. c.corrupt then
    { deliver with delivered = Some (flip_bit t bytes) }
  else if u < c.drop +. c.corrupt +. c.truncate then
    { deliver with delivered = Some (truncate_bytes t bytes) }
  else if u < c.drop +. c.corrupt +. c.truncate +. c.duplicate then
    { deliver with copies = 2 }
  else if u < c.drop +. c.corrupt +. c.truncate +. c.duplicate +. c.reorder
  then
    (* Arrives outside the lockstep receive window: discarded as stale. *)
    { delivered = None; copies = 1; extra_s = 0. }
  else if
    u < c.drop +. c.corrupt +. c.truncate +. c.duplicate +. c.reorder
        +. c.spike
  then { deliver with extra_s = c.spike_s }
  else deliver
