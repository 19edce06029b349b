(* round_fresh: one user running sequential rounds with no instance
   reuse and no keypool, on one domain — every layer on the critical
   path, no queueing.  The untraced run calls Protocol.run_round
   itself; the traced run alternates it with [round_traced], which
   makes the same calls in the same order with a span around each. *)

open Lbq_geo
module Params = Lbq_core.Params
module Server = Lbq_core.Server
module Client = Lbq_core.Client
module Protocol = Lbq_core.Protocol
module Wire = Lbq_core.Wire
module Counters = Lbq_metrics.Counters

let now = Unix.gettimeofday

(* The traced layers must account for the round: the median round time
   not covered by a span may be at most this share of the median
   traced round. *)
let attribution_tolerance = 0.05

(* The steps of Protocol.run_round, one span each. *)
let round_traced tr ~round client server ~position : Protocol.round_result =
  let sp name f = Trace.span (Some tr) ~name ~round f in
  let group = (Server.params server).Params.group in
  let log = ref [] in
  let send direction label bytes =
    log := { Protocol.direction; label; bytes = String.length bytes } :: !log;
    bytes
  in
  let cell = sp "client.locate" (fun () -> Client.locate client position) in
  let st1, q = sp "client.stage1_query" (fun () -> Client.stage1_query client cell) in
  let q_wire =
    send Protocol.User_to_server "OT query (C1, C2)"
      (sp "wire.encode" (fun () -> Wire.ot_query_encode group q))
  in
  let q = sp "wire.decode" (fun () -> Wire.ot_query_decode group q_wire) in
  let r = sp "server.ot_respond" (fun () -> Server.ot_respond server q) in
  let r_wire =
    send Protocol.Server_to_user "OT response (C'_1, C'_2)"
      (sp "wire.encode" (fun () -> Wire.ot_response_encode group r))
  in
  let r = sp "wire.decode" (fun () -> Wire.ot_response_decode group r_wire) in
  let credential = sp "client.stage1_decode" (fun () -> Client.stage1_decode client st1 r) in
  let st2, pq = sp "client.stage2_query" (fun () -> Client.stage2_query client credential) in
  let pq_wire =
    send Protocol.User_to_server "PIR query (N, g)"
      (sp "wire.encode" (fun () -> Wire.pir_query_encode pq))
  in
  let n, g = sp "wire.decode" (fun () -> Wire.pir_query_decode pq_wire) in
  let ge = sp "server.pir_respond" (fun () -> Server.pir_respond server ~n ~g) in
  let ge_wire =
    send Protocol.Server_to_user "PIR response (g^e)"
      (sp "wire.encode" (fun () -> Wire.pir_response_encode ~n ge))
  in
  let ge = sp "wire.decode" (fun () -> Wire.pir_response_decode ge_wire) in
  let pois = sp "client.stage2_decode" (fun () -> Client.stage2_decode client st2 ge) in
  { Protocol.pois; credential; transcript = List.rev !log }

let check_round m ~position ~epoch (r : Protocol.round_result) =
  Deploy.check m ~position ~epoch
    ~idq:(Client.credential_idq r.Protocol.credential) r.Protocol.pois

(* Rounds of the traced driver must reproduce Protocol.run_round's
   transcript exactly, given servers and clients in the same state. *)
let oracle_check ~seed ~area ~m (a : Server.t) (b : Server.t) =
  let ca = Client.create ~seed:(seed ^ "/oracle") (Server.public_info a) in
  let cb = Client.create ~seed:(seed ^ "/oracle") (Server.public_info b) in
  let next = Deploy.position_stream ~seed ~label:"oracle" area in
  let scratch = Trace.create () in
  for round = 1 to 2 do
    let position = next () in
    let ra = Protocol.run_round ca a ~position in
    let rb = round_traced scratch ~round cb b ~position in
    if ra.Protocol.transcript <> rb.Protocol.transcript then
      Deploy.fail "traced round %d: transcript differs from Protocol.run_round" round;
    if Client.credential_idq ra.Protocol.credential
       <> Client.credential_idq rb.Protocol.credential
    || Client.credential_key ra.Protocol.credential
       <> Client.credential_key rb.Protocol.credential
    then Deploy.fail "traced round %d: credential differs" round;
    check_round m ~position ~epoch:0 rb
  done

(* Gaps between each server handler span and the spans just before and
   after it in its round: the in-line analogue of queue wait (decoded
   request to handler) and of pickup (handler return to the next step). *)
let handler_gaps tr =
  let by_round = Hashtbl.create 256 in
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.name <> "round" then
        Hashtbl.replace by_round s.Trace.round
          (s :: Option.value ~default:[] (Hashtbl.find_opt by_round s.Trace.round)))
    (Trace.spans tr);
  let before = Stats.Buf.create () and after = Stats.Buf.create () in
  Hashtbl.iter
    (fun _ spans ->
      let a = Array.of_list spans in
      Array.sort (fun (x : Trace.span) y -> Float.compare x.Trace.t0 y.Trace.t0) a;
      Array.iteri
        (fun i (s : Trace.span) ->
          if Trace.layer s.Trace.name = "server" && i > 0 && i + 1 < Array.length a then begin
            Stats.Buf.add before (s.Trace.t0 -. a.(i - 1).Trace.t1);
            Stats.Buf.add after (a.(i + 1).Trace.t0 -. s.Trace.t1)
          end)
        a)
    by_round;
  Stats.Buf.to_array before, Stats.Buf.to_array after

let run ~size ~seed ~rounds ~updates ~trace ~trace_file : Metric.outcome =
  let params = Deploy.params size ~seed in
  let area, pois = Deploy.city ~seed params in
  (* Every probe runs on this domain, beside the work it calibrates. *)
  let probe = Probe.create () in
  (* Set up three times; the median is setup_s.  The traced run keeps
     the last two, identical servers, for the transcript oracle. *)
  let setups =
    List.init 3 (fun _ ->
        let metrics = Counters.create () in
        let t0 = now () in
        let server = Server.create ~metrics params ~area pois in
        let dt = now () -. t0 in
        Gc.compact ();
        (dt, server, metrics))
  in
  let setup_s = Array.of_list (List.map (fun (s, _, _) -> s) setups) in
  let _, server, smetrics = List.nth setups 2 in
  let m = Deploy.model server in
  if trace then begin
    let _, a, _ = List.nth setups 1 in
    oracle_check ~seed ~area ~m a server
  end;
  let cmetrics = Counters.create () in
  let client = Client.create ~metrics:cmetrics ~seed:(seed ^ "/user") (Server.public_info server) in
  let next = Deploy.position_stream ~seed ~label:"user0" area in
  (* untimed warm-up round *)
  (let position = next () in
   check_round m ~position ~epoch:0 (Protocol.run_round client server ~position));
  (* leave set-up's garbage out of the timed phase *)
  Gc.compact ();
  let tr = Trace.create () in
  let starts = Stats.Buf.create () and ends = Stats.Buf.create () in
  let lat_traced = Stats.Buf.create () and lat_plain = Stats.Buf.create () in
  let up = ref 0 and down = ref 0 in
  (* [per_round] single-cell Server.update_cell calls after each round,
     each timed apart: the update samples spread over the whole run, so
     a host slow or fast for a second cannot move their median.  Each
     starts on an empty minor heap, so that a collection owed by the
     round before does not land in one update in ten and decide the
     p90. *)
  let per_round = (updates + rounds - 1) / rounds in
  let stream = Array.of_list (Deploy.churn ~seed m ~steps:updates) in
  let upd_starts = Stats.Buf.create () and upd_ends = Stats.Buf.create () in
  let upd_words = ref 0. in
  let c0 = Counters.snapshot cmetrics and s0 = Counters.snapshot smetrics in
  let gc0 = Gc.minor_words () in
  Probe.sample probe;
  for round = 0 to rounds - 1 do
    let position = next () in
    let traced = trace && round land 1 = 1 in
    let t0 = now () in
    let r =
      if traced then round_traced tr ~round client server ~position
      else Protocol.run_round client server ~position
    in
    let t1 = now () in
    Probe.sample probe;
    Stats.Buf.add starts t0;
    Stats.Buf.add ends t1;
    Stats.Buf.add (if traced then lat_traced else lat_plain) (t1 -. t0);
    if traced then Trace.add tr ~name:"round" ~round t0 t1;
    let first = round * per_round in
    check_round m ~position ~epoch:(min first updates) r;
    up := !up + Protocol.transcript_bytes ~direction:Protocol.User_to_server r.Protocol.transcript;
    down := !down + Protocol.transcript_bytes ~direction:Protocol.Server_to_user r.Protocol.transcript;
    let last = min updates (first + per_round) in
    if first < last then begin
      for i = first to last - 1 do
        let u = stream.(i) in
        Gc.minor ();
        let w0 = Gc.minor_words () in
        let t0 = now () in
        Server.update_cell server ~idq:u.Poi_file.cell u.Poi_file.pois;
        Stats.Buf.add upd_starts t0;
        Stats.Buf.add upd_ends (now ());
        upd_words := !upd_words +. (Gc.minor_words () -. w0);
        Deploy.model_update m ~epoch:(i + 1) ~cell:u.Poi_file.cell u.Poi_file.pois
      done;
      Probe.sample probe
    end
  done;
  let gc_words = Gc.minor_words () -. gc0 -. !upd_words in
  let c1 = Counters.snapshot cmetrics and s1 = Counters.snapshot smetrics in
  (* the last cell updated must decode its newest contents *)
  (if updates > 0 then
     let last = stream.(updates - 1) in
     let position = List.assoc last.Poi_file.cell (Deploy.cell_representatives m) in
     check_round m ~position ~epoch:updates (Protocol.run_round client server ~position));
  let lat, lat_wall = Probe.intervals probe starts ends in
  let upd, upd_wall = Probe.intervals probe upd_starts upd_ends in
  let n = float_of_int rounds in
  let e2e =
    [ Metric.v "setup_s" "s" (Stats.median setup_s) ~samples:3 ]
    @ Metric.percentiles "round" lat
    @ [ Metric.v "throughput_rps" "1/s" (n /. Stats.sum lat) ~samples:rounds;
        Metric.v "round_bytes" "bytes" (float_of_int (!up + !down) /. n) ~samples:rounds ]
    @ [ Metric.ms "update_p50_ms" (Stats.median upd) ~samples:(Array.length upd) ]
  in
  let per_layer =
    if not trace then []
    else begin
      let med keep = Stats.median (Trace.per_round tr keep) in
      let is n s = String.equal s n in
      let rounds_traced = Stats.Buf.to_array lat_traced in
      let round_total = Stats.sum rounds_traced in
      let sum keep = Stats.sum (Trace.per_round tr keep) in
      let layer l s = String.equal (Trace.layer s) l in
      let nt = Array.length rounds_traced in
      let server_calls =
        Array.of_list
          (List.filter_map
             (fun (s : Trace.span) ->
               if Trace.layer s.Trace.name = "server" then Some (s.Trace.t1 -. s.Trace.t0)
               else None)
             (Trace.spans tr))
      in
      let waits, pickups = handler_gaps tr in
      let unattributed =
        Trace.per_round tr (fun s -> s <> "round")
        |> Array.mapi (fun i inside -> rounds_traced.(i) -. inside)
      in
      let unattributed_ms = Stats.median unattributed in
      let attribution = unattributed_ms /. Stats.median rounds_traced in
      if attribution > attribution_tolerance then
        Deploy.fail "layers leave %.1f%% of the round unattributed (tolerance %.0f%%)"
          (100. *. attribution) (100. *. attribution_tolerance);
      let per n d = float_of_int d /. n in
      let batches = s1.Counters.batch_served - s0.Counters.batch_served in
      [ Metric.ms ~samples:nt "client.stage1_query_ms" (med (is "client.stage1_query"));
        Metric.ms ~samples:nt "client.stage1_decode_ms" (med (is "client.stage1_decode"));
        Metric.ms ~samples:nt "client.stage2_query_ms" (med (is "client.stage2_query"));
        Metric.ms ~samples:nt "client.stage2_decode_ms" (med (is "client.stage2_decode"));
        Metric.v ~samples:rounds "client.prime_attempts" "count"
          (per n (c1.Counters.prime_attempts - c0.Counters.prime_attempts));
        Metric.v ~samples:rounds "client.mr_calls" "count"
          (per n (c1.Counters.mr_calls - c0.Counters.mr_calls));
        Metric.ms ~samples:nt "server.ot_respond_ms" (med (is "server.ot_respond"));
        Metric.ms ~samples:nt "server.pir_respond_ms" (med (is "server.pir_respond"));
        Metric.v ~samples:rounds "server.mults" "count"
          (per n (s1.Counters.server_mult - s0.Counters.server_mult));
        Metric.ms ~samples:(Array.length server_calls) "service.latency_p50_ms"
          (Stats.median server_calls);
        Metric.ms ~samples:(Array.length waits) "service.queue_wait_p50_ms" (Stats.median waits);
        Metric.v ~samples:nt "service.busy_ratio" "ratio" (sum (layer "server") /. round_total);
        Metric.v ~samples:batches "service.batch_mean" "count"
          (per (float_of_int (max 1 batches))
             (s1.Counters.batch_size_sum - s0.Counters.batch_size_sum));
        Metric.v ~samples:rounds "service.sheds" "count"
          (per n (s1.Counters.sheds - s0.Counters.sheds));
        Metric.v ~samples:rounds "service.update_blocks" "count"
          (per n (s1.Counters.update_blocks - s0.Counters.update_blocks));
        Metric.v ~samples:rounds "service.epoch_bumps" "count"
          (per n (s1.Counters.epoch_bumps - s0.Counters.epoch_bumps));
        Metric.v ~samples:nt "driver.busy_ratio" "ratio"
          (sum (fun s -> layer "client" s || layer "wire" s) /. round_total);
        Metric.ms ~samples:(Array.length pickups) "driver.pickup_ms" (Stats.median pickups);
        Metric.ms ~samples:nt "wire.codec_ms" (med (layer "wire"));
        Metric.v ~samples:rounds "wire.up_bytes" "bytes" (per n !up);
        Metric.v ~samples:rounds "wire.down_bytes" "bytes" (per n !down);
        Metric.v ~samples:rounds "gc.minor_words" "words" (gc_words /. n);
        Metric.ms ~samples:nt "trace.unattributed_ms" unattributed_ms;
        Metric.v ~samples:nt "trace.overhead_ratio" "ratio"
          (Stats.median rounds_traced /. Stats.median (Stats.Buf.to_array lat_plain)) ]
    end
  in
  if trace then Trace.write tr trace_file;
  let ms x = Printf.sprintf "%.3f" (1e3 *. x) in
  { Metric.metrics = (if trace then per_layer else e2e);
    attempted = rounds; failed = 0;
    info = [ "pois", string_of_int (List.length pois);
             "attribution_tolerance", Printf.sprintf "%.2f" attribution_tolerance;
             "setup_s", String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") setup_s));
             "wall round_p50_ms/p90_ms", ms (Stats.median lat_wall) ^ " " ^ ms (Stats.quantile lat_wall 0.9);
             "update_p90_ms (not gated)", ms (Stats.quantile upd 0.9);
             "wall update_p50_ms", ms (Stats.median upd_wall);
             "probe_ms median/count", Printf.sprintf "%.3f %d" (Probe.median_ms probe) (Probe.count probe) ] }
