(* serve_churn: a closed loop of 8 simulated users over a Service with
   one worker domain (the driver is the other domain of a 2-core host),
   with one single-cell POI update per two completed rounds submitted
   through Service.submit_update.

   The driver makes the calls Fleet makes, in the same order, but it is
   the benchmark's own: Fleet's per-tenant instance cache holds 8
   entries and cannot be sized from outside, so with 64 cells most of
   its rounds would run a prime search on the driver and the benchmark
   would measure the load generator.  Here the users share one
   Client.t whose reuse cache holds every cell (paper §VI), filled in
   set-up from a Keypool prewarmed inline, so no prime search runs in
   the timed phase.  Every request and reply crosses Wire as bytes.

   The work that sets throughput and round latency runs on the worker
   domain, so that is where its speed probe runs (see Probe): the
   Service takes a clock that, on the worker, runs one probe at the
   start of every batch it drains.  Updates, submitted on the driver,
   are calibrated by probes on the driver. *)

open Lbq_bignum
open Lbq_geo
module Params = Lbq_core.Params
module Server = Lbq_core.Server
module Client = Lbq_core.Client
module Wire = Lbq_core.Wire
module Service = Lbq_net.Service
module Keypool = Lbq_cache.Keypool
module Counters = Lbq_metrics.Counters

let now = Unix.gettimeofday
let users = 8
let batch = 4
let setups = 3

type pending =
  | Ot_wait of Client.stage1
  | Pir_wait of { st2 : Client.stage2; n : Z.t; idq : int }

type user = {
  id : int;
  next_position : unit -> Coord.t;
  mutable seq : int;
  mutable round : int;
  mutable position : Coord.t;
  mutable started_s : float;
  mutable submitted_s : float;
  mutable pending : pending option;
}

(* One completed ticket, for deriving queue wait and busy time from
   outside the service. *)
type ticket = { submit_s : float; done_s : float; pickup_s : float; t_round : int }

type sample = {
  s_tenant : int;
  s_seq : int;
  s_epoch : int;
  s_request : Service.request;
  s_reply : Service.reply;
}

type state = {
  service : Service.t;
  client : Client.t;
  group : Lbq_group.Schnorr.t;
  m : Deploy.model;
  users : user array;
  tenant0 : int;                   (* tenant id of users.(0) *)
  trace : bool;
  tr : Trace.t;
  salt : string;
  mutable samples : sample list;
  churn : Poi_file.update array;
  mutable churned : int;
  dprobe : Probe.t;                (* driver-domain probes *)
  upd_starts : Stats.Buf.t;
  upd_ends : Stats.Buf.t;
  mutable target : int;
  mutable started : int;
  mutable completed : int;
  mutable failed : int;
  mutable in_flight : int;
  mutable up : int;
  mutable down : int;
  round_starts : Stats.Buf.t;
  round_ends : Stats.Buf.t;
  traced_lat : Stats.Buf.t;
  plain_lat : Stats.Buf.t;
  mutable tickets : ticket list;
  mutable driver_busy : float;
}

let traced st u = st.trace && u.round land 1 = 1

let sp st u name f =
  Trace.span (if traced st u then Some st.tr else None) ~name ~round:u.round f

let submit st u request =
  u.submitted_s <- now ();
  match Service.submit st.service ~tenant:u.id ~seq:u.seq request with
  | Service.Accepted _ -> st.in_flight <- st.in_flight + 1; true
  | Service.Shed _ -> false

let rec start_round st u =
  if st.started < st.target then begin
    u.round <- st.started;
    st.started <- st.started + 1;
    u.started_s <- now ();
    u.position <- u.next_position ();
    let cell = sp st u "client.locate" (fun () -> Client.locate st.client u.position) in
    let st1, q = sp st u "client.stage1_query" (fun () -> Client.stage1_query st.client cell) in
    let wire = sp st u "wire.encode" (fun () -> Wire.ot_query_encode st.group q) in
    st.up <- st.up + String.length wire;
    let q = sp st u "wire.decode" (fun () -> Wire.ot_query_decode st.group wire) in
    u.pending <- Some (Ot_wait st1);
    if not (submit st u (Service.Ot_query q)) then abandon st u
  end

(* A shed round counts as failed; the user starts its next round. *)
and abandon st u =
  st.failed <- st.failed + 1;
  u.pending <- None;
  u.seq <- u.seq + 1;
  start_round st u

(* Each user's first exchange pair, one ticket in sixteen chosen by a
   hash of the seed and (tenant, seq), and one in two of the PIR
   tickets admitted after the last update (the only PIR replies the
   oracle can replay once the service stops). *)
let keep_sample st tk reply =
  let tenant = Service.ticket_tenant tk and seq = Service.ticket_seq tk in
  let request = Service.ticket_request tk and epoch = Service.ticket_epoch tk in
  let final_pir =
    match request with
    | Service.Pir_query _ -> epoch = Array.length st.churn
    | Service.Ot_query _ -> false
  in
  let h = Hashtbl.hash (st.salt, tenant, seq) in
  if seq < 2 || h land 15 = 0 || (final_pir && h land 1 = 0) then
    st.samples <-
      { s_tenant = tenant; s_seq = seq; s_epoch = epoch; s_request = request; s_reply = reply }
      :: st.samples

let complete st tk pickup_s =
  st.in_flight <- st.in_flight - 1;
  let u = st.users.(Service.ticket_tenant tk - st.tenant0) in
  let reply = match Service.ticket_reply tk with Some r -> r | None -> assert false in
  let done_s = u.submitted_s +. Service.ticket_latency_s tk in
  st.tickets <- { submit_s = u.submitted_s; done_s; pickup_s; t_round = u.round } :: st.tickets;
  if traced st u then Trace.add st.tr ~name:"driver.pickup" ~round:u.round done_s pickup_s;
  keep_sample st tk reply;
  match u.pending, reply with
  | Some (Ot_wait st1), Service.Ot_reply (Ok resp) ->
    let wire = sp st u "wire.encode" (fun () -> Wire.ot_response_encode st.group resp) in
    st.down <- st.down + String.length wire;
    let resp = sp st u "wire.decode" (fun () -> Wire.ot_response_decode st.group wire) in
    let cred = sp st u "client.stage1_decode" (fun () -> Client.stage1_decode st.client st1 resp) in
    let st2, (n, g) =
      sp st u "client.stage2_query" (fun () -> Client.stage2_query ~reuse:true st.client cred)
    in
    let wire = sp st u "wire.encode" (fun () -> Wire.pir_query_encode (n, g)) in
    st.up <- st.up + String.length wire;
    let n, g = sp st u "wire.decode" (fun () -> Wire.pir_query_decode wire) in
    let idq = Client.credential_idq cred in
    u.seq <- u.seq + 1;
    u.pending <- Some (Pir_wait { st2; n; idq });
    let shard = Server.shard_of_cell ~shards:(Service.shard_count st.service) idq in
    if not (submit st u (Service.Pir_query { shard; n; g })) then abandon st u
  | Some (Pir_wait { st2; n; idq }), Service.Pir_reply (Ok ge) ->
    let wire = sp st u "wire.encode" (fun () -> Wire.pir_response_encode ~n ge) in
    st.down <- st.down + String.length wire;
    let ge = sp st u "wire.decode" (fun () -> Wire.pir_response_decode wire) in
    let pois = sp st u "client.stage2_decode" (fun () -> Client.stage2_decode st.client st2 ge) in
    let latency = now () -. u.started_s in
    Deploy.check st.m ~position:u.position ~epoch:(Service.ticket_epoch tk) ~idq pois;
    Stats.Buf.add st.round_starts u.started_s;
    Stats.Buf.add st.round_ends (u.started_s +. latency);
    Stats.Buf.add (if traced st u then st.traced_lat else st.plain_lat) latency;
    if traced st u then Trace.add st.tr ~name:"round" ~round:u.round u.started_s (u.started_s +. latency);
    st.completed <- st.completed + 1;
    u.pending <- None;
    u.seq <- u.seq + 1;
    (* one single-cell update per two completed rounds *)
    if st.completed land 1 = 0 && st.churned < Array.length st.churn then begin
      let c = st.churn.(st.churned) in
      Probe.sample st.dprobe;
      let t0 = now () in
      let epoch = Service.submit_update st.service [ (c.Poi_file.cell, c.Poi_file.pois) ] in
      Stats.Buf.add st.upd_starts t0;
      Stats.Buf.add st.upd_ends (now ());
      Probe.sample st.dprobe;
      st.churned <- st.churned + 1;
      Deploy.model_update st.m ~epoch ~cell:c.Poi_file.cell c.Poi_file.pois
    end;
    start_round st u
  | _, (Service.Ot_reply (Error e) | Service.Pir_reply (Error e)) ->
    Deploy.fail "service rejected an honest query: %s" (Server.rejection_message e)
  | _ -> Deploy.fail "reply does not match the exchange in flight"

(* Run [rounds] rounds in closed loop; returns the phase's wall time. *)
let phase st ~rounds =
  st.target <- st.started + rounds;
  let t0 = now () in
  Array.iter (fun u -> start_round st u) st.users;
  let rec loop () =
    if st.in_flight > 0 then
      match Service.next_done st.service with
      | Some tk ->
        let t = now () in
        complete st tk t;
        st.driver_busy <- st.driver_busy +. (now () -. t);
        loop ()
      | None -> ()
  in
  loop ();
  now () -. t0

(* Queue wait and busy time, derived from outside the service: tickets
   drained together share one completion instant; a batch is busy from
   max(previous completion, its last submit) to its completion, and
   each ticket waited for the rest of its latency. *)
let derive (tickets : ticket list) =
  let sorted = List.sort (fun a b -> Float.compare a.done_s b.done_s) tickets in
  let rec batches acc cur = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | t :: rest ->
      (match cur with
       | c :: _ when t.done_s -. c.done_s < 1e-3 -> batches acc (t :: cur) rest
       | [] -> batches acc [ t ] rest
       | _ -> batches (List.rev cur :: acc) [ t ] rest)
  in
  let waits = Stats.Buf.create () and busy = ref 0. and prev = ref neg_infinity in
  List.iter
    (fun b ->
      let done_s = (List.hd b).done_s in
      let last_submit = List.fold_left (fun a t -> Float.max a t.submit_s) neg_infinity b in
      let busy_b = done_s -. Float.max !prev last_submit in
      busy := !busy +. busy_b;
      prev := done_s;
      List.iter (fun t -> Stats.Buf.add waits (Float.max 0. (done_s -. t.submit_s -. busy_b))) b)
    (batches [] [] sorted);
  Stats.Buf.to_array waits, !busy

let reply_bytes group request = function
  | Service.Ot_reply (Ok r) -> Wire.ot_response_encode group r
  | Service.Pir_reply (Ok ge) ->
    (match request with
     | Service.Pir_query { n; _ } -> Wire.pir_response_encode ~n ge
     | Service.Ot_query _ -> "")
  | Service.Ot_reply (Error e) | Service.Pir_reply (Error e) ->
    "rejected: " ^ Server.rejection_message e

(* Once the service has stopped (so every update fence has landed),
   replay the sampled tickets.  OT samples go through
   Service.respond_reference, the handler the worker calls for each OT
   ticket, and must be byte-identical.  PIR samples are replayed the way
   the worker serves them: in groups of [batch] through
   Server.pir_respond_shard_checked_batch, on a shard rebuilt from the
   final database.  Those admitted at the final epoch must be
   byte-identical both to that replay and to respond_reference; older
   ones were checked against the trusted model when decoded.  Returns
   the per-request OT and PIR replay times. *)
let check_samples st server =
  let final = Service.epoch st.service in
  let differs (s : sample) want =
    reply_bytes st.group s.s_request want <> reply_bytes st.group s.s_request s.s_reply
  in
  let mismatch (s : sample) what =
    Deploy.fail "tenant %d seq %d: reply differs from %s" s.s_tenant s.s_seq what
  in
  let ot = Stats.Buf.create () and pir = Stats.Buf.create () in
  let pir_samples =
    List.filter
      (fun (s : sample) ->
        match s.s_request with
        | Service.Ot_query _ ->
          let t0 = now () in
          let want = Service.respond_reference st.service ~tenant:s.s_tenant ~seq:s.s_seq s.s_request in
          Stats.Buf.add ot (now () -. t0);
          if differs s want then mismatch s "Service.respond_reference";
          false
        | Service.Pir_query _ -> true)
      (List.rev st.samples)
  in
  let shard = (Server.pir_shards server ~count:1).(0) in
  let rec groups = function
    | [] -> ()
    | l ->
      let g = List.filteri (fun i _ -> i < batch) l in
      let queries =
        Array.of_list
          (List.map
             (fun (s : sample) ->
               match s.s_request with
               | Service.Pir_query { n; g; _ } -> (n, g)
               | Service.Ot_query _ -> assert false)
             g)
      in
      let t0 = now () in
      let replies = Server.pir_respond_shard_checked_batch server shard queries in
      let per = (now () -. t0) /. float_of_int (Array.length queries) in
      List.iteri
        (fun i (s : sample) ->
          Stats.Buf.add pir per;
          if s.s_epoch = final then begin
            if differs s (Service.Pir_reply replies.(i)) then
              mismatch s "Server.pir_respond_shard_checked_batch";
            if differs s (Service.respond_reference st.service ~tenant:s.s_tenant ~seq:s.s_seq s.s_request)
            then mismatch s "Service.respond_reference"
          end)
        g;
      groups (List.filteri (fun i _ -> i >= batch) l)
  in
  groups pir_samples;
  let compared = List.length (List.filter (fun (s : sample) -> s.s_epoch = final) pir_samples) in
  if compared = 0 then Deploy.fail "no sampled PIR ticket was admitted at the final epoch %d" final;
  Stats.Buf.to_array ot, Stats.Buf.to_array pir, compared

let make_state ~service ~client ~group ~m ~trace ~churn ~tenant0 ~seed ~dprobe area =
  {
    service; client; group; m; trace; tr = Trace.create (); salt = seed; samples = [];
    tenant0;
    users =
      Array.init users (fun i ->
          let id = tenant0 + i in
          { id;
            next_position =
              Deploy.position_stream ~seed ~label:("user" ^ string_of_int id) area;
            seq = 0; round = 0; position = Coord.make ~x:0. ~y:0.;
            started_s = 0.; submitted_s = 0.; pending = None });
    churn; churned = 0; dprobe;
    upd_starts = Stats.Buf.create (); upd_ends = Stats.Buf.create ();
    target = 0; started = 0; completed = 0; failed = 0; in_flight = 0;
    up = 0; down = 0;
    round_starts = Stats.Buf.create (); round_ends = Stats.Buf.create ();
    traced_lat = Stats.Buf.create ();
    plain_lat = Stats.Buf.create (); tickets = []; driver_busy = 0.;
  }

(* The Service's clock.  The worker reads it twice per batch it drains,
   at the start and at the end; before each start read it runs one
   probe.  The probe's time is thus outside the batch's own service
   time but inside its tickets' latency.  Reads on the driver (submit
   times) pass straight through. *)
let worker_clock probe =
  let driver = Domain.self () in
  let reads = ref 0 in
  fun () ->
    if Domain.self () <> driver then begin
      incr reads;
      if !reads land 1 = 1 then Probe.sample probe
    end;
    now ()

let timed f =
  let t0 = now () in
  let r = f () in
  now () -. t0, r

(* Build the LS and its Service (one worker domain, with its probe). *)
let setup (params : Params.t) ~area pois =
  let metrics = Counters.create () in
  let wprobe = Probe.create () in
  timed (fun () ->
      let server = Server.create ~metrics params ~area pois in
      let service = Service.create ~clock:(worker_clock wprobe) ~batch ~shards:1 server in
      (server, service, metrics, wprobe))

(* The users' keypool: one instance per cell, prewarmed inline (no
   keypool worker domains). *)
let prewarm ~seed (params : Params.t) server =
  timed (fun () ->
      let pool =
        Keypool.create ~config:{ Keypool.capacity = 1; low_watermark = 0 }
          ~seed:(seed ^ "/keypool") ~plan:(Server.public_info server).Server.plan
          ~q_bits:params.Params.q_bits ()
      in
      Keypool.prewarm pool;
      pool)

(* Stage 1 against the LS directly, then stage 2 through the reply the
   sequential oracle gives for the cell's shard: what a user in the cell
   decodes once every fence has landed. *)
let decode_cell st server ~idq ~position =
  let cell = Client.locate st.client position in
  let st1, q = Client.stage1_query st.client cell in
  let cred = Client.stage1_decode st.client st1 (Server.ot_respond server q) in
  if Client.credential_idq cred <> idq then
    Deploy.fail "cell %d: credential names cell %d" idq (Client.credential_idq cred);
  let st2, (n, g) = Client.stage2_query ~reuse:true st.client cred in
  let shard = Server.shard_of_cell ~shards:(Service.shard_count st.service) idq in
  match Service.respond_reference st.service ~tenant:(-1) ~seq:0 (Service.Pir_query { shard; n; g }) with
  | Service.Pir_reply (Ok ge) -> Client.stage2_decode st.client st2 ge
  | _ -> Deploy.fail "cell %d: oracle refused the query" idq

let run ~size ~seed ~rounds ~updates ~trace ~trace_file : Metric.outcome =
  let params = Deploy.params size ~seed in
  let area, pois = Deploy.city ~seed params in
  let dprobe = Probe.create () in
  (* setup_s = median of [setups] LS + Service builds, plus one keypool
     prewarm.  The prewarm is already an aggregate of one instance
     build per cell, and repeating it would double the run. *)
  let walls = Array.make setups 0. in
  let deployment = ref None in
  for i = 0 to setups - 1 do
    Option.iter (fun (_, service, _, _) -> Service.shutdown service) !deployment;
    deployment := None;
    let wall, d = setup params ~area pois in
    walls.(i) <- wall;
    deployment := Some d;
    Gc.compact ()
  done;
  let server, service, smetrics, wprobe = Option.get !deployment in
  let prewarm_wall, pool = prewarm ~seed params server in
  let m = Deploy.model server in
  let group = params.Params.group in
  (* Fill the shared client's reuse cache with every reachable cell. *)
  let cmetrics = Counters.create () in
  let client =
    Client.create ~metrics:cmetrics ~seed:(seed ^ "/user")
      ~cache_cap:(Params.private_cells params) (Server.public_info server)
  in
  let reps = Deploy.cell_representatives m in
  let t0 = now () in
  List.iter
    (fun (idq, position) ->
      let st1, q = Client.stage1_query client (Client.locate client position) in
      let cred = Client.stage1_decode client st1 (Server.ot_respond server q) in
      if Client.credential_idq cred <> idq then Deploy.fail "cache fill: cell %d" idq;
      ignore (Client.stage2_query ~reuse:true ~pool client cred))
    reps;
  let fill_s = now () -. t0 in
  let stream = Array.of_list (Deploy.churn ~seed m ~steps:updates) in
  let state ~trace ~churn ~tenant0 =
    make_state ~service ~client ~group ~m ~trace ~churn ~tenant0 ~seed ~dprobe area
  in
  (* untimed warm-up: one round per user, no updates *)
  ignore (phase (state ~trace:false ~churn:[||] ~tenant0:users) ~rounds:users);
  let st = state ~trace ~churn:stream ~tenant0:0 in
  (* leave set-up's garbage out of the timed phase *)
  Gc.compact ();
  let c0 = Counters.snapshot cmetrics and s0 = Counters.snapshot smetrics in
  let gc0 = Gc.minor_words () in
  let t_start = now () in
  let wall = phase st ~rounds in
  let gc_words = Gc.minor_words () -. gc0 in
  let c1 = Counters.snapshot cmetrics and s1 = Counters.snapshot smetrics in
  Service.shutdown service;
  Keypool.shutdown pool;
  if st.churned <> Array.length stream then
    Deploy.fail "%d of %d updates submitted" st.churned (Array.length stream);
  let ot_ref, pir_ref, pir_compared = check_samples st server in
  (* the last cell updated must now decode its newest contents *)
  let last = stream.(st.churned - 1) in
  let position = List.assoc last.Poi_file.cell reps in
  Deploy.check m ~position ~epoch:(Service.epoch service) ~idq:last.Poi_file.cell
    (decode_cell st server ~idq:last.Poi_file.cell ~position);
  (* Rounds at the reference speed of the worker's probes beside them,
     updates at that of the driver probes just before and after each. *)
  let lat, lat_wall = Probe.intervals wprobe st.round_starts st.round_ends in
  let upd, upd_wall = Probe.intervals dprobe st.upd_starts st.upd_ends in
  let n = float_of_int st.completed in
  let per d = float_of_int d /. n in
  let e2e =
    [ Metric.v "setup_s" "s" (Stats.median walls +. prewarm_wall) ~samples:setups ]
    @ Metric.percentiles "round" lat
    @ [ Metric.v "throughput_rps" "1/s"
          (n /. Probe.integrate wprobe ~t0:t_start ~t1:(t_start +. wall))
          ~samples:st.completed;
        Metric.v "round_bytes" "bytes" (float_of_int (st.up + st.down) /. n)
          ~samples:st.completed ]
    @ [ Metric.ms "update_p50_ms" (Stats.median upd) ~samples:(Array.length upd) ]
  in
  let per_layer () =
    let tr = st.tr in
    let is name s = String.equal s name in
    let layer l s = String.equal (Trace.layer s) l in
    let med keep = Stats.median (Trace.per_round tr keep) in
    let traced = Stats.Buf.to_array st.traced_lat in
    let nt = Array.length traced in
    let tickets = Array.of_list st.tickets in
    let latency = Array.map (fun t -> t.done_s -. t.submit_s) tickets in
    let pickup = Array.map (fun t -> t.pickup_s -. t.done_s) tickets in
    let waits, busy = derive st.tickets in
    (* per traced round: time covered by no span and no ticket *)
    let in_service = Hashtbl.create 256 in
    Array.iter
      (fun t ->
        Hashtbl.replace in_service t.t_round
          (t.done_s -. t.submit_s
           +. Option.value ~default:0. (Hashtbl.find_opt in_service t.t_round)))
      tickets;
    let rounds_traced = List.sort compare
        (List.sort_uniq compare
           (List.filter_map
              (fun (s : Trace.span) -> if s.Trace.name = "round" then Some s.Trace.round else None)
              (Trace.spans tr)))
    in
    let inside = Trace.per_round tr (fun s -> s <> "round") in
    let whole = Trace.per_round tr (is "round") in
    let unattributed =
      Array.of_list
        (List.mapi
           (fun i r -> whole.(i) -. inside.(i) -. Hashtbl.find in_service r)
           rounds_traced)
    in
    let batches = s1.Counters.batch_served - s0.Counters.batch_served in
    [ Metric.ms ~samples:nt "client.stage1_query_ms" (med (is "client.stage1_query"));
      Metric.ms ~samples:nt "client.stage1_decode_ms" (med (is "client.stage1_decode"));
      Metric.ms ~samples:nt "client.stage2_query_ms" (med (is "client.stage2_query"));
      Metric.ms ~samples:nt "client.stage2_decode_ms" (med (is "client.stage2_decode"));
      Metric.v ~samples:st.completed "client.prime_attempts" "count"
        (per (c1.Counters.prime_attempts - c0.Counters.prime_attempts));
      Metric.v ~samples:st.completed "client.mr_calls" "count"
        (per (c1.Counters.mr_calls - c0.Counters.mr_calls));
      Metric.ms ~samples:(Array.length ot_ref) "server.ot_respond_ms" (Stats.median ot_ref);
      Metric.ms ~samples:(Array.length pir_ref) "server.pir_respond_ms" (Stats.median pir_ref);
      Metric.v ~samples:st.completed "server.mults" "count"
        (per (s1.Counters.server_mult - s0.Counters.server_mult));
      Metric.ms ~samples:(Array.length latency) "service.latency_p50_ms" (Stats.median latency);
      Metric.ms ~samples:(Array.length waits) "service.queue_wait_p50_ms" (Stats.median waits);
      Metric.v ~samples:(Array.length latency) "service.busy_ratio" "ratio" (busy /. wall);
      Metric.v ~samples:batches "service.batch_mean" "count"
        (float_of_int (s1.Counters.batch_size_sum - s0.Counters.batch_size_sum)
         /. float_of_int (max 1 batches));
      Metric.v ~samples:st.completed "service.sheds" "count"
        (per (s1.Counters.sheds - s0.Counters.sheds));
      Metric.v ~samples:st.completed "service.update_blocks" "count"
        (per (s1.Counters.update_blocks - s0.Counters.update_blocks));
      Metric.v ~samples:st.completed "service.epoch_bumps" "count"
        (per (s1.Counters.epoch_bumps - s0.Counters.epoch_bumps));
      Metric.v ~samples:st.completed "driver.busy_ratio" "ratio" (st.driver_busy /. wall);
      Metric.ms ~samples:(Array.length pickup) "driver.pickup_ms" (Stats.median pickup);
      Metric.ms ~samples:nt "wire.codec_ms" (med (layer "wire"));
      Metric.v ~samples:st.completed "wire.up_bytes" "bytes" (per st.up);
      Metric.v ~samples:st.completed "wire.down_bytes" "bytes" (per st.down);
      Metric.v ~samples:st.completed "gc.minor_words" "words" (gc_words /. n);
      Metric.ms ~samples:nt "trace.unattributed_ms" (Stats.median unattributed);
      Metric.v ~samples:nt "trace.overhead_ratio" "ratio"
        (Stats.median traced /. Stats.median (Stats.Buf.to_array st.plain_lat)) ]
  in
  let metrics = if trace then per_layer () else e2e in
  if trace then Trace.write st.tr trace_file;
  let s3 x = Printf.sprintf "%.3f" x in
  let ms x = s3 (1e3 *. x) in
  { Metric.metrics;
    attempted = st.completed + st.failed;
    failed = st.failed;
    info =
      [ "pois", string_of_int (List.length pois);
        "setup_ls_s", String.concat " " (Array.to_list (Array.map s3 walls));
        "prewarm_s", s3 prewarm_wall;
        "cache_fill_s", s3 fill_s;
        "wall round_p50_ms/p90_ms", ms (Stats.median lat_wall) ^ " " ^ ms (Stats.quantile lat_wall 0.9);
        "wall throughput_rps", s3 (n /. wall);
        "update_p90_ms (not gated)", ms (Stats.quantile upd 0.9);
        "wall update_p50_ms", ms (Stats.median upd_wall);
        "probe_ms worker/driver", s3 (Probe.median_ms wprobe) ^ " " ^ s3 (Probe.median_ms dprobe);
        "final_epoch", string_of_int (Service.epoch service);
        "oracle replays ot/pir (pir compared)",
        Printf.sprintf "%d/%d (%d)" (Array.length ot_ref) (Array.length pir_ref) pir_compared ] }
