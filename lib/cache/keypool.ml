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
   out of order, and the synchronous fallback may even race a worker on
   the same ticket (both produce the same bytes; the slower result is
   discarded), but [take] always hands out generation k before k+1, so
   a pooled run is byte-identical to the sequential reference
   ([build_reference], asserted by test_cache and bench keypool).

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
  slots : (int * Gr.Client.state) option array;
    (* (pinned epoch, instance); ring keyed by generation mod capacity —
       generation g lives in slot g mod capacity, and at most [capacity]
       generations are ever outstanding, so slots never collide *)
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
  mutable epoch : int;
    (* deployment epoch the pool is pinned to; instances stocked under
       an older pin are evicted on take, never silently served *)
  mutable hits : int;
  mutable misses : int;
  mutable refills : int;
  mutable steals : int;
  mutable stale_evictions : int;
}

type stats = {
  hits : int;
  misses : int;
  refills : int;
  steals : int;
  stale_evictions : int;
  depth : int array;
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

let build_reference ?(metrics = Counters.null) ~seed ~plan ~q_bits ~index
    ~generation () =
  let base = Drbg.create ~domain:"lbq-keypool" ~seed () in
  build_instance ~metrics ~base ~plan ~q_bits ~index ~generation

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
    epoch = 0;
    hits = 0;
    misses = 0;
    refills = 0;
    steals = 0;
    stale_evictions = 0;
  }

let plan t = t.plan
let q_bits t = t.q_bits
let capacity t = t.config.capacity

let epoch t =
  Mutex.lock t.lock;
  let e = t.epoch in
  Mutex.unlock t.lock;
  e

(* Re-pin the pool to a new deployment epoch (the serving layer calls
   this when it invalidates issued instances, e.g. on a plan-changing
   rebuild).  Already-stocked instances keep their old pin and are
   evicted lazily by the next take that reaches them — routed to a
   foreground rebuild instead of being silently served. *)
let set_epoch t e =
  if e < 0 then invalid_arg "Keypool.set_epoch: negative epoch";
  Mutex.lock t.lock;
  if e < t.epoch then begin
    Mutex.unlock t.lock;
    invalid_arg "Keypool.set_epoch: epoch may not move backwards"
  end;
  t.epoch <- e;
  Mutex.unlock t.lock

(* ------------------------------------------------------------------ *)
(* Refill machinery (all helpers expect [t.lock] held)                  *)
(* ------------------------------------------------------------------ *)

(* Store a finished build, pinned to the epoch its ticket was claimed
   under.  Stale tickets — generations the foreground already served
   past while this build was in flight — are discarded: the foreground
   produced the identical bytes itself. *)
let insert t ~index ~generation ~epoch st =
  let s = t.stripes.(index) in
  if (not t.closed) && generation >= s.next_take then begin
    s.slots.(generation mod t.config.capacity) <- Some (epoch, st);
    s.count <- s.count + 1;
    t.refills <- t.refills + 1;
    Counters.pool_refills t.metrics 1
  end

let refill_job t ~index ~generation ~epoch () =
  (match
     build_instance ~metrics:t.metrics ~base:t.base ~plan:t.plan
       ~q_bits:t.q_bits ~index ~generation
   with
  | st, _wire ->
    Mutex.lock t.lock;
    t.inflight <- t.inflight - 1;
    insert t ~index ~generation ~epoch st
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Mutex.lock t.lock;
    t.inflight <- t.inflight - 1;
    if t.error = None then t.error <- Some (e, bt));
  Condition.broadcast t.changed;
  Mutex.unlock t.lock

(* Claim ticket [generation] for stripe [index] and hand it to a worker,
   pinned to the current epoch (captured at claim time, so an epoch bump
   racing an in-flight build invalidates that build rather than letting
   it be stocked as fresh); on a dead/shut-down worker pool the ticket
   is released and scheduling stops (the synchronous fallback still
   serves takes). *)
let schedule_one t ~index ~generation =
  match t.workers with
  | None -> false
  | Some w ->
    t.inflight <- t.inflight + 1;
    (try
       Pool.submit w (refill_job t ~index ~generation ~epoch:t.epoch);
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
  raise_pending t;
  if t.closed then begin
    Mutex.unlock t.lock;
    invalid_arg "Keypool.take: pool is shut down"
  end;
  let s = t.stripes.(index) in
  let g = s.next_take in
  (* An instance stocked under an older epoch pin must never be served:
     evict it (counted) and fall through to the cold path, which
     rebuilds generation g in the foreground under the current epoch. *)
  (match s.slots.(g mod t.config.capacity) with
  | Some (ep, _) when ep <> t.epoch ->
    s.slots.(g mod t.config.capacity) <- None;
    s.count <- s.count - 1;
    t.stale_evictions <- t.stale_evictions + 1;
    Counters.pool_stale_evictions t.metrics 1
  | _ -> ());
  match s.slots.(g mod t.config.capacity) with
  | Some (_, st) ->
    (* Warm: pop generation g and sweep the watermarks. *)
    s.slots.(g mod t.config.capacity) <- None;
    s.count <- s.count - 1;
    s.next_take <- g + 1;
    t.hits <- t.hits + 1;
    Counters.pool_hits t.metrics 1;
    replenish t;
    Mutex.unlock t.lock;
    (st, Gr.Client.wire st)
  | None ->
    (* Cold: generation g is not ready.  Claim its ticket if no worker
       has (a steal); if one is mid-build we duplicate the identical
       work rather than block, and the worker's late copy is discarded
       by [insert].  Either way the caller gets generation g, keeping
       take order sequential. *)
    s.next_take <- g + 1;
    t.misses <- t.misses + 1;
    Counters.pool_misses t.metrics 1;
    if s.next_build <= g then begin
      s.next_build <- g + 1;
      t.steals <- t.steals + 1;
      Counters.pool_steals t.metrics 1
    end;
    replenish t;
    Mutex.unlock t.lock;
    build_instance ~metrics:t.metrics ~base:t.base ~plan:t.plan
      ~q_bits:t.q_bits ~index ~generation:g

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
    let epoch = t.epoch in
    Mutex.unlock t.lock;
    let st, _ =
      build_instance ~metrics:t.metrics ~base:t.base ~plan:t.plan
        ~q_bits:t.q_bits ~index ~generation
    in
    Mutex.lock t.lock;
    insert t ~index ~generation ~epoch st;
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
(* Stats                                                                *)
(* ------------------------------------------------------------------ *)

let stats t : stats =
  Mutex.lock t.lock;
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      refills = t.refills;
      steals = t.steals;
      stale_evictions = t.stale_evictions;
      depth = Array.map (fun (s : stripe) -> s.count) t.stripes;
    }
  in
  Mutex.unlock t.lock;
  s

let pp_stats fmt (s : stats) =
  let total = Array.fold_left ( + ) 0 s.depth in
  Format.fprintf fmt
    "@[keypool: %d hits, %d misses (%d steals), %d refills, %d stale \
     eviction(s); %d instance(s) warm across %d stripe(s), depth min %d max \
     %d@]"
    s.hits s.misses s.steals s.refills s.stale_evictions total
    (Array.length s.depth)
    (Array.fold_left min max_int s.depth)
    (Array.fold_left max 0 s.depth)
