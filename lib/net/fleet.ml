(* Multi-tenant load generator: N simulated users driving one {!Service}
   in closed loop, the sustained-traffic counterpart of the single-round
   walkthroughs in bin/lbq.

   Each tenant owns a full client session — its own {!Lbq_core.Client}
   (seeded from a [Drbg.split] child of the fleet seed, so every
   tenant's query stream is independent and replayable), its own
   position stream, its own {!Counters} — and optionally shares the
   deployment {!Keypool} for warm stage-2 instances.  A round is
   {!Lbq_core.Protocol.round}, the one round every driver runs: OT the
   credential for the located cell, then PIR the cell block from the
   shard its IDQ stripes to, then decrypt.  Each tenant runs rounds in a
   straight-line loop inside an effect fiber, which [run] suspends while
   its exchange is at the service or it backs off.

   The driver is closed-loop: one exchange in flight per tenant, the
   next submitted from the completion of the previous, so offered load
   tracks capacity times tenant count and queue growth is bounded by
   design — admission control is then exercised by setting queue_depth
   below tenants/shards.

   Faults compose here, tenant-side: a per-tenant {!Chaos} instance
   judges each request and response frame.  A lost request never
   reaches the service (the retry just waits); a lost response wastes
   the server work already spent — that asymmetry is what the
   throughput-under-loss bench row measures.  Each exchange runs under
   {!Retry.run}: sheds and losses consume the same budget, and a shed's
   retry-after hint is the least wait before the retry.

   Determinism: with chaos off and no shared keypool, every tenant's
   round sequence — positions, queries, blinding, replies — is a pure
   function of (fleet seed, tenant id, deployment), independent of
   shard count, domain scheduling, or completion order.  The
   byte-identity test runs the same fleet at 1 and several domains and
   compares full transcripts. *)

open Lbq_geo
module Client = Lbq_core.Client
module Server = Lbq_core.Server
module Params = Lbq_core.Params
module Wire = Lbq_core.Wire
module Protocol = Lbq_core.Protocol
module Keypool = Lbq_cache.Keypool
module Drbg = Lbq_crypto.Drbg
module Counters = Lbq_metrics.Counters
module Histogram = Lbq_metrics.Histogram

type stop = Rounds of int | Duration of float

type config = {
  tenants : int;
  stop : stop;
  chaos : Chaos.config option;  (* per-tenant fault injection *)
  policy : Retry.policy;        (* budget for sheds and losses alike *)
  seed : string;
  record : bool;                (* keep per-round transcripts *)
  reuse : bool;                 (* per-cell instance reuse (§VI) *)
}

let default_config =
  {
    tenants = 4;
    stop = Rounds 4;
    chaos = None;
    policy = Retry.make ~max_attempts:8 ~timeout_s:0.002 ~backoff:2.0
        ~max_backoff_s:0.05 ~jitter:0.1 ();
    seed = "lbq-fleet";
    record = false;
    reuse = false;
  }

(* One completed round's witness, for the byte-identity tests: the
   credential, the raw PIR group element, and the decoded POI count. *)
type entry = { idq : int; key : string; ge : Lbq_bignum.Z.t; pois : int }

(* One tenant's slice of the run, for per-tenant reporting (lbq serve). *)
type tenant_stats = {
  rounds_completed : int;
  rounds_failed : int;
  counters : Counters.snapshot;
}

type outcome = {
  tenants : int;
  rounds : int;          (* completed *)
  failed : int;          (* abandoned: retry budget exhausted *)
  duration_s : float;
  qps : float;           (* completed rounds per second *)
  round_latency : Histogram.t;
  service_latency : Histogram.t; (* per-shard service histograms, merged *)
  sheds : int;           (* Shed outcomes observed by tenants *)
  retries : int;         (* re-attempts after shed or loss *)
  drops : int;           (* frames chaos destroyed *)
  per_tenant : tenant_stats array;
  transcripts : entry list array;  (* per tenant, round order; [record] *)
}

(* ------------------------------------------------------------------ *)
(* Tenants                                                              *)
(* ------------------------------------------------------------------ *)

type tenant = {
  id : int;
  client : Client.t;
  walk : Drbg.t;               (* position stream *)
  jitter : Drbg.t;             (* backoff jitter stream *)
  chaos : Chaos.t option;
  metrics : Counters.t;
  mutable seq : int;           (* next exchange id; stable across retries *)
  mutable rounds : int;        (* rounds completed *)
  mutable failed : int;        (* rounds abandoned *)
  mutable log : entry list;    (* reverse round order *)
}

let make_tenant ~public ~chaos ~base id =
  let label what = "t" ^ string_of_int id ^ "/" ^ what in
  let seed = Drbg.bytes (Drbg.split base ~label:(label "client")) 32 in
  {
    id;
    client = Client.create ~metrics:(Counters.create ()) ~seed public;
    walk = Drbg.split base ~label:(label "walk");
    jitter = Drbg.split base ~label:(label "jitter");
    chaos =
      Option.map
        (fun config ->
          Chaos.create ~config
            ~seed:(Drbg.bytes (Drbg.split base ~label:(label "chaos")) 32)
            ())
        chaos;
    metrics = Counters.create ();
    seq = 0;
    rounds = 0;
    failed = 0;
    log = [];
  }

(* Uniform position in the service area, a fresh placement per round. *)
let draw_position area walk =
  let frac d = float_of_int (Drbg.int d 1_000_000) /. 1e6 in
  let lo = Coord.Rect.min area and hi = Coord.Rect.max area in
  Coord.make
    ~x:(Coord.x lo +. (frac walk *. (Coord.x hi -. Coord.x lo)))
    ~y:(Coord.y lo +. (frac walk *. (Coord.y hi -. Coord.y lo)))

(* Does the tenant-side chaos destroy this frame?  Anything short of a
   byte-exact delivery counts as a loss: a corrupted or truncated frame
   would fail wire decode or server validation and cost the same retry.
   The frame is a thunk so chaos-off runs never pay for encoding. *)
let frame_lost tenant frame =
  match tenant.chaos with
  | None -> false
  | Some c ->
    let frame = frame () in
    let verdict = Chaos.next c frame in
    (match verdict.Chaos.delivered with
     | Some bytes when String.equal bytes frame -> false
     | _ -> true)

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

(* A tenant fiber suspends on [Await] after a submit, until the service
   completes the ticket, and on [Sleep_until] to back off. *)
type _ Effect.t +=
  | Await : Service.ticket -> Service.reply Effect.t
  | Sleep_until : float -> unit Effect.t

(* The round is given up: the retry budget ran out, or validation
   rejected an honest query (only possible under corruption that slipped
   the frame check). *)
exception Abandoned

(* A tenant backing off past the [Duration] deadline is discontinued. *)
exception Past_deadline

let run ?pool ?clock (service : Service.t) (config : config) : outcome =
  if config.tenants < 1 then invalid_arg "Fleet.run: tenants < 1";
  (match config.stop with
   | Rounds r when r < 1 -> invalid_arg "Fleet.run: rounds < 1"
   | Duration d when d <= 0. -> invalid_arg "Fleet.run: duration <= 0"
   | _ -> ());
  let clock = match clock with Some c -> c | None -> Unix.gettimeofday in
  let server = Service.server service in
  let public = Server.public_info server in
  let group = (Server.params server).Params.group in
  let shards = Service.shard_count service in
  let base = Drbg.create ~domain:"lbq-fleet" ~seed:config.seed () in
  let tenants =
    Array.init config.tenants (make_tenant ~public ~chaos:config.chaos ~base)
  in
  let round_latency = Histogram.create () in
  let started_s = clock () in
  let deadline =
    match config.stop with
    | Duration d -> Some (started_s +. d)
    | Rounds _ -> None
  in
  let past_deadline now =
    match deadline with Some d -> now >= d | None -> false
  in
  (* One exchange under the retry budget.  A lost request never reaches
     the service (no server work burned); a lost response wastes the
     work already spent, and the retry resubmits the same (tenant, seq),
     for which the service re-derives identical bytes.  A shed's
     retry-after hint is the least wait before the retry. *)
  let exchange tenant request ~req_frame ~accept ~frame =
    let seq = tenant.seq in
    tenant.seq <- seq + 1;
    let hint_s = ref 0. in
    let attempt () =
      if frame_lost tenant req_frame then begin
        Counters.drops tenant.metrics 1;
        Error "request lost"
      end
      else
        match Service.submit service ~tenant:tenant.id ~seq request with
        | Service.Shed { retry_after_s } ->
          Counters.sheds tenant.metrics 1;
          hint_s := retry_after_s;
          Error "shed"
        | Service.Accepted tk ->
          let reply = accept (Effect.perform (Await tk)) in
          let reply_frame () = Option.fold ~none:"" ~some:frame reply in
          if frame_lost tenant reply_frame then begin
            Counters.drops tenant.metrics 1;
            Error "response lost"
          end
          else Ok reply
    in
    (* counted once the wait is over: a tenant discontinued at the
       deadline never makes the re-attempt *)
    let on_retry ~failures:_ ~wait_s =
      let wait_s = Float.max wait_s !hint_s in
      hint_s := 0.;
      Effect.perform (Sleep_until (clock () +. wait_s));
      Counters.retries tenant.metrics 1
    in
    match
      Retry.run config.policy ~rand:(Drbg.int tenant.jitter) ~on_retry attempt
    with
    | Ok (Some v) -> v
    | Ok None | Error _ -> raise Abandoned
  in
  let play tenant =
    let ge = ref Lbq_bignum.Z.zero in
    let ot q =
      exchange tenant (Service.Ot_query q)
        ~req_frame:(fun () -> Wire.ot_query_encode group q)
        ~accept:(function Service.Ot_reply (Ok r) -> Some r | _ -> None)
        ~frame:(Wire.ot_response_encode group)
    in
    let pir cred (n, g) =
      let shard = Server.shard_of_cell ~shards (Client.credential_idq cred) in
      ge :=
        exchange tenant (Service.Pir_query { shard; n; g })
          ~req_frame:(fun () -> Wire.pir_query_encode (n, g))
          ~accept:(function Service.Pir_reply (Ok ge) -> Some ge | _ -> None)
          ~frame:(Wire.pir_response_encode ~n);
      !ge
    in
    let rec rounds started =
      let more =
        (not (past_deadline (clock ())))
        && (match config.stop with
            | Rounds r -> started < r
            | Duration _ -> true)
      in
      if more then begin
        let t0 = clock () in
        let position = draw_position public.Server.area tenant.walk in
        (match
           Protocol.round ~reuse:config.reuse ?pool tenant.client ~position
             ~ot ~pir
         with
         | pois, cred ->
           tenant.rounds <- tenant.rounds + 1;
           Histogram.record_s round_latency (clock () -. t0);
           if config.record then
             tenant.log <-
               { idq = Client.credential_idq cred;
                 key = Client.credential_key cred; ge = !ge;
                 pois = List.length pois }
               :: tenant.log
         | exception Abandoned -> tenant.failed <- tenant.failed + 1);
        rounds (started + 1)
      end
    in
    try rounds 0 with Past_deadline -> tenant.failed <- tenant.failed + 1
  in
  (* The scheduler: the continuation each tenant awaits its ticket in,
     and the tenants sleeping out a backoff with their wake-up time. *)
  let awaiting : (Service.reply, unit) Effect.Deep.continuation option array =
    Array.make config.tenants None
  in
  let sleepers : (float * (unit, unit) Effect.Deep.continuation) list ref =
    ref []
  in
  let spawn tenant =
    Effect.Deep.try_with play tenant
      { Effect.Deep.effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Await _ ->
              Some (fun (k : (a, _) Effect.Deep.continuation) ->
                  awaiting.(tenant.id) <- Some k)
            | Sleep_until at ->
              Some (fun (k : (a, _) Effect.Deep.continuation) ->
                  sleepers := (at, k) :: !sleepers)
            | _ -> None) }
  in
  (* main loop: wake due sleepers, then block on the next completion
     when work is in flight, else sleep to the earliest wake-up. *)
  let rec loop () =
    let now = clock () in
    let due, later = List.partition (fun (at, _) -> at <= now) !sleepers in
    sleepers := later;
    List.iter
      (fun (_, k) ->
        if past_deadline now then Effect.Deep.discontinue k Past_deadline
        else Effect.Deep.continue k ())
      due;
    if Array.exists Option.is_some awaiting then begin
      match Service.next_done service with
      | Some tk ->
        let id = Service.ticket_tenant tk in
        let k = Option.get awaiting.(id) in
        awaiting.(id) <- None;
        Effect.Deep.continue k (Option.get (Service.ticket_reply tk));
        loop ()
      | None -> ()
    end
    else
      match !sleepers with
      | [] -> () (* every tenant is done *)
      | waiting ->
        let earliest =
          List.fold_left (fun acc (at, _) -> Float.min acc at) infinity waiting
        in
        let wait = earliest -. clock () in
        if wait > 0. then Unix.sleepf (Float.min wait 0.05);
        loop ()
  in
  Array.iter spawn tenants;
  loop ();
  let finished_s = clock () in
  let duration_s = Float.max 1e-9 (finished_s -. started_s) in
  let sum f = Array.fold_left (fun acc t -> acc + f t) 0 tenants in
  let counter f =
    sum (fun t -> f (Counters.snapshot t.metrics))
  in
  let rounds = sum (fun t -> t.rounds) in
  {
    tenants = config.tenants;
    rounds;
    failed = sum (fun t -> t.failed);
    duration_s;
    qps = float_of_int rounds /. duration_s;
    round_latency;
    service_latency = Histogram.merge (Service.shard_latencies service);
    sheds = counter (fun s -> s.Counters.sheds);
    retries = counter (fun s -> s.Counters.retries);
    drops = counter (fun s -> s.Counters.drops);
    per_tenant =
      Array.map
        (fun t ->
          {
            rounds_completed = t.rounds;
            rounds_failed = t.failed;
            counters = Counters.snapshot t.metrics;
          })
        tenants;
    transcripts = Array.map (fun t -> List.rev t.log) tenants;
  }
