(* Multi-tenant service layer: the LS as a long-running server under
   sustained traffic — the one path that answers concurrent stage-1 and
   stage-2 queries (the paper's §VI parallel-serving remedy).

   Three mechanisms, composed:

   - Sharding.  The stage-2 database is striped across S sub-servers
     ({!Lbq_core.Server.pir_shards}): shard d CRT-encodes the cells
     {i | i mod S = d}, so its database integer e_d — and every
     g^{e_d} mod N it answers — is ~1/S of the whole.  At S = 1 the
     one shard is the master's own encode, handed over
     ({!Lbq_core.Server.take_pir}) rather than built a second time.
     One worker domain owns each shard (its queue, its cached window
     schedule), so throughput scales with domains twice over: S-way
     parallelism on ~1/S-cost responses.  Long-lived domains also keep their
     bignum {!Scratch} slots warm across requests (Domain.DLS), so
     steady-state serving allocates only results.

   - Admission control.  Each shard queue is bounded; a submit that
     finds the queue at its high watermark is refused with a
     retry-after hint derived from the backlog and the shard's smoothed
     service time.  A shed is data (like {!Lbq_core.Server.rejection}),
     so the chaos/Retry machinery treats it as one more retryable
     fault — backpressure composes with packet loss instead of
     deadlocking behind it.

   - Deterministic identity.  OT responses need fresh blinding; each
     request's DRBG child is forked from the service seed by
     (tenant, seq) — not by arrival order, shard, or domain — so any
     interleaving of any number of workers is byte-identical to the
     {!respond_reference} sequential oracle, and a retried (tenant,
     seq) re-derives the same reply (idempotent round resume, as in
     {!Session}).  Workers answer every request, drained alone or in a
     batch, through the same function as that oracle.

   Concurrency skeleton: one mutex guards every queue; workers sleep on
   [work], completion consumers on [done_c].  All cryptographic work
   happens outside the lock, so at realistic service times (hundreds of
   microseconds and up per respond) the lock is uncontended. *)

open Lbq_bignum
module Server = Lbq_core.Server
module Params = Lbq_core.Params
module Ot = Lbq_ot.Ot
module Gr = Lbq_pir.Gr
module Drbg = Lbq_crypto.Drbg
module Counters = Lbq_metrics.Counters
module Histogram = Lbq_metrics.Histogram
module Pool = Lbq_pool.Pool

type request =
  | Ot_query of Ot.query
  | Pir_query of { shard : int; n : Z.t; g : Z.t }

type reply =
  | Ot_reply of (Ot.response, Server.rejection) result
  | Pir_reply of (Z.t, Server.rejection) result

type ticket = {
  tenant : int;
  seq : int;
  request : request;
  epoch : int;                     (* database epoch admitted under *)
  submitted_s : float;
  mutable reply : reply option;    (* written once, under the lock *)
  mutable latency_s : float;       (* submit -> completion, once done *)
}

type outcome = Accepted of ticket | Shed of { retry_after_s : float }

(* One streaming-update batch in flight: [remaining] counts the shards
   still owed their slice; the last one to land completes the batch and
   flips the applied epoch. *)
type update_batch = { mutable remaining : int; cells : int }

(* One shard's slice of a batch: (slot-in-shard, new CRT block) pairs,
   blocks captured at submit time so later batches cannot bleed in. *)
type apply = { batch : update_batch; slices : (int * Z.t) list }

(* A shard queue interleaves requests with update fences in admission
   order: FIFO draining then guarantees each request is served from
   exactly the database epoch it was admitted under. *)
type job = Ticket of ticket | Apply of apply

type t = {
  server : Server.t;
  shards : Gr.Server.t array;
  ot_base : Drbg.t;
    (* parent of every per-request OT stream; [Drbg.split] reads only
       immutable state, so workers fork from it without the lock *)
  queue_depth : int;
  batch : int;                     (* max requests drained per dispatch *)
  clock : unit -> float;
  metrics : Counters.t;
  shard_latency : Histogram.t array;  (* submit-to-completion, per shard *)
  lock : Mutex.t;
  update_lock : Mutex.t;           (* serializes submit_update producers *)
  work : Condition.t;
  done_c : Condition.t;
  queues : job Queue.t array;      (* one bounded queue per shard *)
  completed : ticket Queue.t;      (* drained by [next_done] *)
  ewma_s : float array;            (* per-shard smoothed service time *)
  mutable submitted_epoch : int;   (* +1 per submit_update, immediately *)
  mutable applied_epoch : int;     (* +1 when a batch's last shard lands *)
  mutable stop : bool;
  mutable pool : Pool.t option;    (* None: pump mode (tests) *)
}

(* Until a shard's EWMA has its first sample, shed hints assume this
   per-request service time so the hint still scales with the backlog
   (a stage-2 respond is never cheaper than this). *)
let unseeded_service_s = 1e-3

let shard_count t = Array.length t.shards
let queue_depth t = t.queue_depth
let batch t = t.batch
let server t = t.server
let shard_latencies t = Array.to_list t.shard_latency

(* Requests waiting on shard [d]'s queue, update fences excluded.
   Caller holds the lock. *)
let backlog t d =
  Queue.fold
    (fun n -> function Ticket _ -> n + 1 | Apply _ -> n)
    0 t.queues.(d)

let queue_length t d =
  if d < 0 || d >= Array.length t.queues then
    invalid_arg "Service.queue_length: shard out of range";
  Mutex.lock t.lock;
  let n = backlog t d in
  Mutex.unlock t.lock;
  n

let epoch t =
  Mutex.lock t.lock;
  let e = t.submitted_epoch in
  Mutex.unlock t.lock;
  e

let applied_epoch t =
  Mutex.lock t.lock;
  let e = t.applied_epoch in
  Mutex.unlock t.lock;
  e

let ticket_tenant tk = tk.tenant
let ticket_seq tk = tk.seq
let ticket_request tk = tk.request
let ticket_epoch tk = tk.epoch
let ticket_reply tk = tk.reply
let ticket_latency_s tk = tk.latency_s

(* Answer one request; safe from any domain.  The OT blinding stream is
   a pure function of (service seed, tenant, seq). *)
let handle t ~tenant ~seq = function
  | Ot_query q ->
    let child =
      Drbg.split t.ot_base
        ~label:("t" ^ string_of_int tenant ^ "/q" ^ string_of_int seq)
    in
    Ot_reply (Server.ot_respond_checked ~rand:(Drbg.rand child) t.server q)
  | Pir_query { shard; n; g } ->
    Pir_reply
      (Server.pir_respond_shard_checked_batch t.server t.shards.(shard)
         [| (n, g) |]).(0)

(* The sequential oracle: what the service must answer for this
   (tenant, seq, request), computed inline with no queue, no workers.
   The byte-identity tests and the bench assertion compare against it. *)
let respond_reference t ~tenant ~seq request = handle t ~tenant ~seq request

(* Drain discipline (caller holds the lock): any leading update fences,
   then up to [limit] tickets, stopping at the next fence.  A fence
   behind tickets thus applies strictly after the earlier-admitted
   tickets are served and strictly before any later ones — the FIFO
   order IS the epoch boundary. *)
let take_dispatch limit (q : job Queue.t) : apply list * ticket array =
  let rec applies acc =
    match Queue.peek_opt q with
    | Some (Apply _) ->
      (match Queue.pop q with
       | Apply a -> applies (a :: acc)
       | Ticket _ -> assert false)
    | _ -> List.rev acc
  in
  let rec tickets acc i =
    if i >= limit then List.rev acc
    else
      match Queue.peek_opt q with
      | Some (Ticket _) ->
        (match Queue.pop q with
         | Ticket tk -> tickets (tk :: acc) (i + 1)
         | Apply _ -> assert false)
      | _ -> List.rev acc
  in
  let a = applies [] in
  (a, Array.of_list (tickets [] 0))

(* Land one shard's slice of an update batch on shard [d]'s sub-server.
   Only queue [d]'s drainer calls this, between dispatches, so no
   respond can observe a torn e_d.  The batch's last shard advances the
   applied epoch and records the batch in the update counters. *)
let apply_updates t d (a : apply) =
  List.iter
    (fun (slot, block) ->
      Gr.Server.update_block t.shards.(d) ~idx:slot ~block)
    a.slices;
  Mutex.lock t.lock;
  a.batch.remaining <- a.batch.remaining - 1;
  let complete = a.batch.remaining = 0 in
  if complete then t.applied_epoch <- t.applied_epoch + 1;
  Mutex.unlock t.lock;
  if complete then begin
    Counters.update_applied t.metrics a.batch.cells;
    Counters.epoch_bumps t.metrics 1
  end

(* Service one drained batch on shard [d] (worker domain or pump): all
   crypto outside the lock, then publish the replies and wake consumers.

   Every ticket is answered by [handle], the function behind
   [respond_reference], so each reply is byte-identical to the
   sequential oracle's for its (tenant, seq, request) by construction.
   Two stage-2 queries share no modular arithmetic (each has its own
   N), so a batch gains nothing from fusing them; draining a batch
   still amortises the lock and the wake-ups.

   The shard's EWMA takes the batch's amortised per-request time — the
   rate at which a backlog actually drains under batching, which is
   what the shed hint predicts with it. *)
let complete_batch t d (tks : ticket array) =
  let k = Array.length tks in
  if k = 0 then ()
  else begin
    let start_s = t.clock () in
    let replies =
      Array.map (fun tk -> handle t ~tenant:tk.tenant ~seq:tk.seq tk.request) tks
    in
    let now = t.clock () in
    let own = (now -. start_s) /. float_of_int k in
    Mutex.lock t.lock;
    Array.iteri
      (fun i tk ->
        tk.reply <- Some replies.(i);
        tk.latency_s <- now -. tk.submitted_s;
        Queue.push tk t.completed)
      tks;
    t.ewma_s.(d) <-
      (if t.ewma_s.(d) = 0. then own
       else (0.875 *. t.ewma_s.(d)) +. (0.125 *. own));
    Condition.broadcast t.done_c;
    Mutex.unlock t.lock;
    Counters.served t.metrics k;
    Counters.batch_served t.metrics 1;
    Counters.batch_size_sum t.metrics k;
    Array.iter
      (fun tk -> Histogram.record_s t.shard_latency.(d) tk.latency_s)
      tks
  end

(* One dispatch on shard [d], shared by the worker domains and {!pump}:
   take the leading fences and up to [batch] tickets under the lock,
   land the fences, serve the tickets.  [None] when the queue was
   empty, else the number of tickets served. *)
let drain_step t d =
  Mutex.lock t.lock;
  let applies, tks = take_dispatch t.batch t.queues.(d) in
  Mutex.unlock t.lock;
  if applies = [] && Array.length tks = 0 then None
  else begin
    List.iter (apply_updates t d) applies;
    complete_batch t d tks;
    Some (Array.length tks)
  end

let rec worker_loop t d =
  Mutex.lock t.lock;
  while Queue.is_empty t.queues.(d) && not t.stop do
    Condition.wait t.work t.lock
  done;
  Mutex.unlock t.lock;
  match drain_step t d with
  | None -> () (* stop requested and this shard's backlog is drained *)
  | Some _ -> worker_loop t d

let create ?ot_seed ?metrics ?clock ?(queue_depth = 64) ?(batch = 1)
    ?(spawn = true) ~shards server =
  if queue_depth < 1 then invalid_arg "Service.create: queue_depth < 1";
  if batch < 1 then invalid_arg "Service.create: batch < 1";
  if shards < 1 || shards > 64 then
    invalid_arg "Service.create: shards must be in [1, 64]";
  let metrics =
    match metrics with Some m -> m | None -> Server.metrics server
  in
  let seed =
    match ot_seed with
    | Some s -> s
    | None -> (Server.params server).Params.seed
  in
  let clock = match clock with Some c -> c | None -> Unix.gettimeofday in
  let t =
    {
      server;
      shards =
        (if shards = 1 then [| Server.take_pir server |]
         else Server.pir_shards server ~count:shards);
      ot_base = Drbg.create ~domain:"lbq-service-ot" ~seed ();
      queue_depth;
      batch;
      clock;
      metrics;
      shard_latency = Array.init shards (fun _ -> Histogram.create ());
      lock = Mutex.create ();
      update_lock = Mutex.create ();
      work = Condition.create ();
      done_c = Condition.create ();
      queues = Array.init shards (fun _ -> Queue.create ());
      completed = Queue.create ();
      ewma_s = Array.make shards 0.;
      submitted_epoch = 0;
      applied_epoch = 0;
      stop = false;
      pool = None;
    }
  in
  if spawn then begin
    let p = Pool.create ~domains:shards () in
    t.pool <- Some p;
    for d = 0 to shards - 1 do
      Pool.submit p (fun () -> worker_loop t d)
    done
  end;
  t

(* Route to a shard queue: PIR queries carry their shard (the client
   derives it from its credential's IDQ — see
   {!Lbq_core.Server.shard_of_cell}); OT queries can be answered by any
   worker, so tenant affinity just spreads them evenly. *)
let submit t ~tenant ~seq request =
  let d =
    match request with
    | Pir_query { shard; _ } ->
      if shard < 0 || shard >= Array.length t.shards then
        invalid_arg "Service.submit: shard out of range";
      shard
    | Ot_query _ -> tenant mod Array.length t.shards
  in
  Mutex.lock t.lock;
  if t.stop then begin
    Mutex.unlock t.lock;
    invalid_arg "Service.submit: after shutdown"
  end;
  let backlog = backlog t d in
  if backlog >= t.queue_depth then begin
    (* High watermark: shed with a hint — long enough for the present
       backlog to clear at the shard's smoothed service rate.  Before
       the EWMA's first sample (start-up, or right after a drain) the
       hint substitutes a conservative default per-request time, so it
       still scales with the backlog instead of collapsing to the bare
       floor. *)
    let est_s =
      if t.ewma_s.(d) > 0. then t.ewma_s.(d) else unseeded_service_s
    in
    let retry_after_s = Float.max 5e-4 (float_of_int backlog *. est_s) in
    Mutex.unlock t.lock;
    Counters.sheds t.metrics 1;
    Shed { retry_after_s }
  end
  else begin
    let tk =
      { tenant; seq; request; epoch = t.submitted_epoch;
        submitted_s = t.clock (); reply = None; latency_s = 0. }
    in
    Queue.push (Ticket tk) t.queues.(d);
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    Accepted tk
  end

(* Stage a streaming-update batch: restage the master's content now
   ({!Server.restage_cell} — partition re-padded, block re-encrypted
   under the same cell key, no master encode repaired: the shards own
   the only encodes a reply reads), capture each cell's new block, then
   fence every affected shard's queue with an Apply marker carrying its
   slice.  FIFO draining turns the fence into the epoch contract:
   requests admitted before this call are answered from the old
   database, requests admitted after from the new one, and no request
   ever observes a torn shard.  The submitted epoch advances
   immediately (new admissions record it); the applied epoch when the
   last affected shard lands its slice.  Producers serialize on
   [update_lock].  Returns the new submitted epoch. *)
let submit_update t (batch : (int * Lbq_geo.Poi.t list) list) : int =
  if batch = [] then invalid_arg "Service.submit_update: empty batch";
  Mutex.lock t.update_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.update_lock) @@ fun () ->
  Mutex.lock t.lock;
  let stopped = t.stop in
  Mutex.unlock t.lock;
  if stopped then invalid_arg "Service.submit_update: after shutdown";
  let count = Array.length t.shards in
  let staged =
    List.map
      (fun (idq, pois) ->
        Server.restage_cell t.server ~idq pois;
        (idq, Z.of_bytes_be (Server.cell_ciphertext t.server idq)))
      batch
  in
  let per_shard = Array.make count [] in
  List.iter
    (fun (idq, block) ->
      let d = Server.shard_of_cell ~shards:count idq in
      per_shard.(d) <- ((idq / count, block) :: per_shard.(d)))
    staged;
  let affected =
    Array.fold_left (fun n s -> if s = [] then n else n + 1) 0 per_shard
  in
  let b = { remaining = affected; cells = List.length batch } in
  Mutex.lock t.lock;
  if t.stop then begin
    Mutex.unlock t.lock;
    invalid_arg "Service.submit_update: after shutdown"
  end;
  t.submitted_epoch <- t.submitted_epoch + 1;
  Array.iteri
    (fun d slices ->
      if slices <> [] then
        Queue.push (Apply { batch = b; slices = List.rev slices })
          t.queues.(d))
    per_shard;
  Condition.broadcast t.work;
  let e = t.submitted_epoch in
  Mutex.unlock t.lock;
  e

(* Pump mode: drain every shard queue inline on the calling domain
   (deterministic single-threaded processing for the admission tests),
   in dispatches of up to [batch] — the same draining discipline as the
   worker domains.  Returns the number of requests served. *)
let pump t =
  let n = ref 0 in
  let rec drain d =
    match drain_step t d with
    | None -> ()
    | Some k -> n := !n + k; drain d
  in
  for d = 0 to Array.length t.queues - 1 do
    drain d
  done;
  !n

(* Block until [tk] completes.  In pump mode the caller's own domain
   drains the queues.  Note: [await] does not consume from the
   completion queue — a service instance is driven either by [await]
   (tests) or by [next_done] (the fleet), not both. *)
let rec await t tk =
  match tk.reply with
  | Some r -> r
  | None ->
    if t.pool = None then begin
      ignore (pump t);
      await t tk
    end
    else begin
      Mutex.lock t.lock;
      let rec wait () =
        match tk.reply with
        | Some r -> Mutex.unlock t.lock; r
        | None -> Condition.wait t.done_c t.lock; wait ()
      in
      wait ()
    end

(* Pop the next completed ticket, blocking while none is ready.  The
   caller must have work in flight (or call from pump mode, where an
   empty service returns [None] instead of blocking forever). *)
let rec next_done t =
  Mutex.lock t.lock;
  match Queue.take_opt t.completed with
  | Some tk -> Mutex.unlock t.lock; Some tk
  | None ->
    if t.pool = None then begin
      Mutex.unlock t.lock;
      if pump t = 0 then None else next_done t
    end
    else if t.stop then begin
      Mutex.unlock t.lock;
      None
    end
    else begin
      Condition.wait t.done_c t.lock;
      Mutex.unlock t.lock;
      next_done t
    end

(* Stop accepting, let workers drain their backlogs, join the domains.
   Idempotent. *)
let shutdown t =
  Mutex.lock t.lock;
  if t.stop then Mutex.unlock t.lock
  else begin
    t.stop <- true;
    Condition.broadcast t.work;
    Condition.broadcast t.done_c;
    Mutex.unlock t.lock;
    match t.pool with None -> () | Some p -> Pool.shutdown p
  end

let with_service ?ot_seed ?metrics ?clock ?queue_depth ?batch ?spawn ~shards
    server f =
  let t =
    create ?ot_seed ?metrics ?clock ?queue_depth ?batch ?spawn ~shards server
  in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
