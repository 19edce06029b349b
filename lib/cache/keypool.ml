(* Background phi-hiding instance pool: the offline/online query split.

   The paper's Table IV puts the user's stage-2 query at seconds-scale,
   dominated by the two semi-safe primality searches that build the
   phi-hiding instance; §VI observes the same set-up serves "several
   more rounds very efficiently".  This module moves that set-up off the
   query path entirely: background workers (Lbq_pool domains) keep a
   small ring of complete, decode-ready instances per prime-power index
   — modulus + trapdoor factorisation, quasi-generator, Montgomery
   context, Pohlig–Hellman tables (Gr.Client.prepare) — and a warm
   [take] is a constant-time pop under one mutex.

   Striping: one ring per index of the plan, all stocked to the same
   capacity.  The background generator therefore does identical work for
   every cell regardless of the query sequence, and the pool's shape
   (which stripes exist, their capacity) carries no information about
   which cell the user asks for; only stripe depth transiently reflects
   recent takes, and the refill sweep tops every low stripe back up.

   Determinism: the instance for (index i, generation k) is a pure
   function of the pool seed — its bytes come from
   [Drbg.split base ~label:"i<i>/g<k>"], the same per-task forking PR 3
   introduced for parallel OT serving.  Workers may build generations
   out of order, but every ticket is built once: a take whose
   generation is already claimed waits for that build instead of
   building it again, and [take] always hands out generation k before
   k+1, so a pooled run is byte-identical to a sequential rebuild from
   the seed (asserted by test_cache and bench keypool against the
   test-only oracle).

   Allocation: stripe storage is preallocated at [create] (one option
   array per index); refilling writes instances into their generation's
   fixed ring slot, so steady-state refill allocates only the instances
   themselves and the worker-job closures — no queue nodes, no resizing. *)

module Gr = Lbq_pir.Gr
module Pool = Lbq_pool.Pool
module Drbg = Lbq_crypto.Drbg
module Counters = Lbq_metrics.Counters

type config = { capacity : int; low_watermark : int }

let default_config = { capacity = 2; low_watermark = 1 }

type stripe = {
  slots : Gr.Client.state option array;
    (* ring keyed by generation mod capacity — generation g lives in
       slot g mod capacity, and at most [capacity] generations are ever
       outstanding, so slots never collide *)
  mutable next_take : int;   (* generation the next take hands out *)
  mutable next_build : int;  (* next unclaimed build ticket *)
  mutable count : int;       (* prebuilt instances currently stored *)
}

type t = {
  plan : Gr.plan;
  q_bits : int;
  config : config;
  stripes : stripe array;
  base : Drbg.t;
    (* split-only parent of every instance stream; [Drbg.split] reads
       only its immutable key, so workers fork from it lock-free *)
  metrics : Counters.t;
  lock : Mutex.t;
  changed : Condition.t;  (* signalled on refill completion *)
  workers : Pool.t option;  (* owned: shut down with the keypool *)
  mutable inflight : int; (* refill jobs queued or running *)
  mutable closed : bool;
  mutable error : (exn * Printexc.raw_backtrace) option;
    (* first refill failure, re-raised to the next caller *)
}

(* ------------------------------------------------------------------ *)
(* Deterministic instance construction                                  *)
(* ------------------------------------------------------------------ *)

let instance_label ~index ~generation =
  "i" ^ string_of_int index ^ "/g" ^ string_of_int generation

(* Build the complete instance for one (index, generation) ticket from
   its own child DRBG, then pay the decode-side tables up front.  Pure
   in (base key, index, generation): any builder produces these bytes. *)
let build_instance ~metrics ~base ~plan ~q_bits ~index ~generation =
  let child = Drbg.split base ~label:(instance_label ~index ~generation) in
  let st, wire =
    Gr.Client.query ~metrics ~plan ~index ~q_bits (Drbg.rand child)
  in
  Gr.Client.prepare st;
  (st, wire)

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)
(* ------------------------------------------------------------------ *)

let create ?(config = default_config) ?domains
    ?(metrics = Counters.null) ?(seed = "lbq-keypool") ~plan ~q_bits () =
  if config.capacity < 1 then invalid_arg "Keypool.create: capacity < 1";
  if config.low_watermark < 0 || config.low_watermark > config.capacity then
    invalid_arg "Keypool.create: low_watermark out of [0, capacity]";
  if q_bits < 16 then invalid_arg "Keypool.create: q_bits too small";
  let workers = Option.map (fun d -> Pool.create ~domains:d ()) domains in
  {
    plan;
    q_bits;
    config;
    stripes =
      Array.init (Gr.plan_size plan) (fun _ ->
          { slots = Array.make config.capacity None;
            next_take = 0;
            next_build = 0;
            count = 0 });
    base = Drbg.create ~domain:"lbq-keypool" ~seed ();
    metrics;
    lock = Mutex.create ();
    changed = Condition.create ();
    workers;
    inflight = 0;
    closed = false;
    error = None;
  }

let plan t = t.plan
let q_bits t = t.q_bits
let capacity t = t.config.capacity

(* ------------------------------------------------------------------ *)
(* Refill machinery (all helpers expect [t.lock] held)                  *)
(* ------------------------------------------------------------------ *)

(* Store a finished build.  A ticket is never served past while its
   build is in flight (a take on it waits), so only a closed pool drops
   a build; the generation check is a guard. *)
let insert t ~index ~generation st =
  let s = t.stripes.(index) in
  if (not t.closed) && generation >= s.next_take then begin
    s.slots.(generation mod t.config.capacity) <- Some st;
    s.count <- s.count + 1;
    Counters.pool_refills t.metrics 1
  end

let refill_job t ~index ~generation () =
  (match
     build_instance ~metrics:t.metrics ~base:t.base ~plan:t.plan
       ~q_bits:t.q_bits ~index ~generation
   with
  | st, _wire ->
    Mutex.lock t.lock;
    t.inflight <- t.inflight - 1;
    insert t ~index ~generation st
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Mutex.lock t.lock;
    t.inflight <- t.inflight - 1;
    if t.error = None then t.error <- Some (e, bt));
  Condition.broadcast t.changed;
  Mutex.unlock t.lock

(* Claim ticket [generation] for stripe [index] and hand it to a worker;
   on a dead/shut-down worker pool the ticket is released and scheduling
   stops (the synchronous fallback still serves takes). *)
let schedule_one t ~index ~generation =
  match t.workers with
  | None -> false
  | Some w ->
    t.inflight <- t.inflight + 1;
    (try
       Pool.submit w (refill_job t ~index ~generation);
       true
     with _ ->
       t.inflight <- t.inflight - 1;
       false)

(* Top stripe [index] up to [target] scheduled-ahead generations. *)
let top_up t ~index ~target =
  let s = t.stripes.(index) in
  let continue = ref true in
  while !continue && s.next_build - s.next_take < target do
    let g = s.next_build in
    s.next_build <- g + 1;
    if not (schedule_one t ~index ~generation:g) then begin
      s.next_build <- g;
      continue := false
    end
  done

(* The uniform refill sweep: every stripe whose lookahead (stored +
   in-flight generations) fell to the watermark is restocked to
   capacity.  Ran on every take, over all indices, so restocking depends
   on pool depth alone. *)
let replenish t =
  if t.workers <> None && not t.closed then
    Array.iteri
      (fun index s ->
        if s.next_build - s.next_take <= t.config.low_watermark then
          top_up t ~index ~target:t.config.capacity)
      t.stripes

let raise_pending t =
  match t.error with
  | Some (e, bt) ->
    Mutex.unlock t.lock;
    Printexc.raise_with_backtrace e bt
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Take                                                                 *)
(* ------------------------------------------------------------------ *)

let take t ~index =
  if index < 0 || index >= Array.length t.stripes then
    invalid_arg "Keypool.take: index out of range";
  Mutex.lock t.lock;
  let s = t.stripes.(index) in
  (* [missed]: this take already found its stripe empty and counted the
     miss, and is now waiting for the generation's in-flight build. *)
  let rec go ~missed =
    raise_pending t;
    if t.closed then begin
      Mutex.unlock t.lock;
      invalid_arg "Keypool.take: pool is shut down"
    end;
    let g = s.next_take in
    match s.slots.(g mod t.config.capacity) with
    | Some st ->
      (* Pop generation g and sweep the watermarks. *)
      s.slots.(g mod t.config.capacity) <- None;
      s.count <- s.count - 1;
      s.next_take <- g + 1;
      if not missed then Counters.pool_hits t.metrics 1;
      replenish t;
      Mutex.unlock t.lock;
      (st, Gr.Client.wire st)
    | None ->
      if not missed then Counters.pool_misses t.metrics 1;
      if s.next_build > g then begin
        (* Generation g's ticket is already claimed (by a refill
           worker or an inline prewarm): wait for its copy rather than
           build the same bytes twice.  A failed build or a shutdown
           wakes the wait and is reported above. *)
        Condition.wait t.changed t.lock;
        go ~missed:true
      end
      else begin
        (* Nobody holds the ticket: claim it (a steal) and build it
           synchronously, keeping take order sequential. *)
        s.next_take <- g + 1;
        s.next_build <- g + 1;
        Counters.pool_steals t.metrics 1;
        replenish t;
        Mutex.unlock t.lock;
        build_instance ~metrics:t.metrics ~base:t.base ~plan:t.plan
          ~q_bits:t.q_bits ~index ~generation:g
      end
  in
  go ~missed:false

(* ------------------------------------------------------------------ *)
(* Prewarm / drain / shutdown                                           *)
(* ------------------------------------------------------------------ *)

(* Build every claimed-but-unscheduled generation inline.  Used by
   [prewarm] when there are no (live) workers; drops and retakes the
   lock around each build. *)
let rec fill_inline t =
  let pending = ref None in
  Array.iteri
    (fun index s ->
      if !pending = None && s.next_build - s.next_take < t.config.capacity
      then begin
        let g = s.next_build in
        s.next_build <- g + 1;
        pending := Some (index, g)
      end)
    t.stripes;
  match !pending with
  | None -> ()
  | Some (index, generation) ->
    Mutex.unlock t.lock;
    let st, _ =
      build_instance ~metrics:t.metrics ~base:t.base ~plan:t.plan
        ~q_bits:t.q_bits ~index ~generation
    in
    Mutex.lock t.lock;
    insert t ~index ~generation st;
    Condition.broadcast t.changed;
    if not t.closed then fill_inline t

let prewarm t =
  Mutex.lock t.lock;
  raise_pending t;
  if t.closed then begin
    Mutex.unlock t.lock;
    invalid_arg "Keypool.prewarm: pool is shut down"
  end;
  if t.workers <> None then
    Array.iteri
      (fun index _ -> top_up t ~index ~target:t.config.capacity)
      t.stripes;
  (* Whatever the workers could not absorb (no pool attached, or a
     refused submit) is built right here. *)
  fill_inline t;
  while t.inflight > 0 && t.error = None do
    Condition.wait t.changed t.lock
  done;
  raise_pending t;
  Mutex.unlock t.lock

let drain t =
  Mutex.lock t.lock;
  while t.inflight > 0 do
    Condition.wait t.changed t.lock
  done;
  raise_pending t;
  Mutex.unlock t.lock

let shutdown t =
  Mutex.lock t.lock;
  t.closed <- true;
  while t.inflight > 0 do
    Condition.wait t.changed t.lock
  done;
  Mutex.unlock t.lock;
  Option.iter Pool.shutdown t.workers

let with_pool ?config ?domains ?metrics ?seed ~plan ~q_bits f =
  let t = create ?config ?domains ?metrics ?seed ~plan ~q_bits () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* ------------------------------------------------------------------ *)
(* Depth                                                                *)
(* ------------------------------------------------------------------ *)

let depth t =
  Mutex.lock t.lock;
  let d = Array.map (fun (s : stripe) -> s.count) t.stripes in
  Mutex.unlock t.lock;
  d
