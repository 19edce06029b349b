(* Tests for the multi-tenant serving layer (lib/net/service.ml,
   lib/net/fleet.ml), the shard split beneath it (Gr.plan_restrict,
   Server.pir_shards), and the latency histogram (lib/metrics).

   Determinism is the backbone: concurrently served traffic must be
   byte-identical to a sequential reference — per-request replies vs
   the respond_reference oracle, and whole fleet runs (many tenants,
   many rounds) vs the same fleet on a pump-mode (no-domains)
   service. *)

open Lbq_bignum
open Lbq_geo
open Lbq_core
module Gr = Lbq_pir.Gr
module Drbg = Lbq_crypto.Drbg
module Ot = Lbq_ot.Ot
module Keypool = Lbq_cache.Keypool
module Service = Lbq_net.Service
module Fleet = Lbq_net.Fleet
module Chaos = Lbq_net.Chaos
module Counters = Lbq_metrics.Counters
module Histogram = Lbq_metrics.Histogram

(* ------------------------------------------------------------------ *)
(* Histogram: bucket math is exact                                      *)
(* ------------------------------------------------------------------ *)

let test_histogram_buckets () =
  (* index/floor are inverse on bucket floors, indices are monotone in
     the value, and a bucket floor maps to its own bucket. *)
  for k = 0 to 479 do
    Alcotest.(check int)
      (Printf.sprintf "floor of bucket %d round-trips" k)
      k
      (Histogram.index_of_ns (Histogram.floor_of_index k))
  done;
  let prev = ref (-1) in
  List.iter
    (fun v ->
      let k = Histogram.index_of_ns v in
      Alcotest.(check bool)
        (Printf.sprintf "index monotone at %d" v)
        true (k >= !prev);
      prev := k)
    [ 0; 1; 7; 8; 15; 16; 31; 100; 960; 1000; 65_535; 65_536; 1_000_000 ];
  (* Pinned literals so the sub-bucket arithmetic itself is asserted,
     not just its self-consistency: 1000 ns lives in the bucket whose
     floor is 960 ns; 100 us in the 98304 ns bucket. *)
  Alcotest.(check int) "floor(bucket(1000 ns))" 960
    (Histogram.floor_of_index (Histogram.index_of_ns 1000));
  Alcotest.(check int) "floor(bucket(100 us))" 98_304
    (Histogram.floor_of_index (Histogram.index_of_ns 100_000));
  Alcotest.(check int) "values below 8 ns are exact" 5
    (Histogram.floor_of_index (Histogram.index_of_ns 5))

let test_histogram_quantiles () =
  (* Known mixture: 50 samples at 1 us, 45 at 100 us, 5 at 10 ms.  Every
     quantile is the exact floor of the bucket holding its rank. *)
  let h = Histogram.create () in
  for _ = 1 to 50 do Histogram.record_ns h 1_000 done;
  for _ = 1 to 45 do Histogram.record_ns h 100_000 done;
  for _ = 1 to 5 do Histogram.record_ns h 10_000_000 done;
  Alcotest.(check int) "count" 100 (Histogram.count h);
  Alcotest.(check int) "p50 = 1 us bucket floor" 960
    (Histogram.quantile_ns h 0.5);
  Alcotest.(check int) "p95 = 100 us bucket floor" 98_304
    (Histogram.quantile_ns h 0.95);
  Alcotest.(check int) "p99 = 10 ms bucket floor" 9_437_184
    (Histogram.quantile_ns h 0.99);
  Alcotest.(check int) "p0 = smallest bucket floor" 960
    (Histogram.quantile_ns h 0.);
  Alcotest.(check int) "p100 = largest bucket floor" 9_437_184
    (Histogram.quantile_ns h 1.);
  (* max is exact, not bucketed *)
  Alcotest.(check (float 1e-12)) "max exact" 0.01 (Histogram.max_s h);
  (* mean: (50*1e3 + 45*1e5 + 5*1e7) / 100 ns *)
  Alcotest.(check (float 1e-9)) "mean" 5.455e-4 (Histogram.mean_s h);
  (match Histogram.quantile_ns h 1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "q outside [0,1] must raise");
  (* empty histogram: quantiles are 0 *)
  let e = Histogram.create () in
  Alcotest.(check int) "empty p99" 0 (Histogram.quantile_ns e 0.99);
  (* merge folds samples *)
  Histogram.merge_into ~dst:e h;
  Alcotest.(check int) "merged count" 100 (Histogram.count e);
  Alcotest.(check int) "merged p95" 98_304 (Histogram.quantile_ns e 0.95);
  Histogram.reset e;
  Alcotest.(check int) "reset count" 0 (Histogram.count e);
  (* list merge: cell-wise sum over any number of sources *)
  let m = Histogram.merge [ h; h; Histogram.create () ] in
  Alcotest.(check int) "merge list count" 200 (Histogram.count m);
  Alcotest.(check int) "merge list p95" 98_304 (Histogram.quantile_ns m 0.95);
  Alcotest.(check int) "merge of nothing is empty" 0
    (Histogram.count (Histogram.merge []))

(* ------------------------------------------------------------------ *)
(* Fixtures                                                             *)
(* ------------------------------------------------------------------ *)

let params = Params.test ()

let area =
  Coord.Rect.make ~min:(Coord.make ~x:0. ~y:0.)
    ~max:(Coord.make ~x:3000. ~y:3000.)

let pois =
  List.init 9 (fun idx ->
      let row = idx / 3 and col = idx mod 3 in
      Poi.make ~id:idx
        ~position:
          (Coord.make
             ~x:((float_of_int col *. 1000.) +. 150.)
             ~y:((float_of_int row *. 1000.) +. 250.))
        ~category:"cafe"
        ~name:(Printf.sprintf "poi-%02d" idx))

let core_server = Server.create params ~area pois
let public = Server.public_info core_server

(* ------------------------------------------------------------------ *)
(* Shard split: responses decode to the same records                    *)
(* ------------------------------------------------------------------ *)

let test_plan_restrict_validation () =
  let plan = public.Server.plan in
  let bad f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  bad (fun () -> Gr.plan_restrict plan ~indices:[||]);
  bad (fun () -> Gr.plan_restrict plan ~indices:[| 0; 0 |]);
  bad (fun () -> Gr.plan_restrict plan ~indices:[| Gr.plan_size plan |]);
  bad (fun () -> Gr.plan_restrict plan ~indices:[| -1 |]);
  let sub = Gr.plan_restrict plan ~indices:[| 4; 1 |] in
  Alcotest.(check int) "sub-plan size" 2 (Gr.plan_size sub);
  Alcotest.(check bool) "slots shared verbatim" true
    (Gr.plan_slot sub 0 = Gr.plan_slot plan 4
     && Gr.plan_slot sub 1 = Gr.plan_slot plan 1)

let test_shard_decode_equivalence () =
  (* For every cell and several shard counts: a client instance built
     against the FULL plan decodes the shard's g^{e_d} to exactly the
     record the unsharded server serves. *)
  let cells = Params.private_cells params in
  let rand = Drbg.rand (Drbg.create ~seed:"shard-equiv" ()) in
  List.iter
    (fun count ->
      let shards = Server.pir_shards core_server ~count in
      Alcotest.(check int) "shard count" count (Array.length shards);
      for index = 0 to cells - 1 do
        let st, (n, g) =
          Gr.Client.query ~plan:public.Server.plan ~index
            ~q_bits:params.Params.q_bits rand
        in
        let full =
          match Server.pir_respond_checked core_server ~n ~g with
          | Ok z -> z
          | Error r -> Alcotest.failf "full respond rejected: %s"
                         (Server.rejection_message r)
        in
        let d = Server.shard_of_cell ~shards:count index in
        let sharded =
          match
            (Server.pir_respond_shard_checked_batch core_server shards.(d)
               [| (n, g) |]).(0)
          with
          | Ok z -> z
          | Error r -> Alcotest.failf "shard respond rejected: %s"
                         (Server.rejection_message r)
        in
        (* group elements differ (e_d <> e) but both decode to C_index *)
        Alcotest.(check bool)
          (Printf.sprintf "decode agrees at cell %d, %d shards" index count)
          true
          (Z.equal (Gr.Client.decode st full) (Gr.Client.decode st sharded))
      done;
      (* the shard split is a real cost split: every e_d is smaller *)
      Array.iter
        (fun shard ->
          Alcotest.(check bool) "shard e_d narrower than e" true
            (Gr.Server.e_bits shard < Server.pir_e_bits core_server))
        shards)
    [ 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Admission control (pump mode: deterministic, single-threaded)        *)
(* ------------------------------------------------------------------ *)

let client = Client.create public

let some_ot_query () =
  let cell = Client.locate client (Coord.make ~x:100. ~y:100.) in
  let _, q = Client.stage1_query client cell in
  Service.Ot_query q

let test_admission_control () =
  let metrics = Counters.create () in
  Service.with_service ~metrics ~queue_depth:3 ~spawn:false ~shards:1
    core_server (fun svc ->
      let accepted = ref [] in
      (* up to the watermark: accepted *)
      for seq = 0 to 2 do
        match Service.submit svc ~tenant:0 ~seq (some_ot_query ()) with
        | Service.Accepted tk -> accepted := tk :: !accepted
        | Service.Shed _ -> Alcotest.failf "submit %d shed below watermark" seq
      done;
      Alcotest.(check int) "backlog at watermark" 3
        (Service.queue_length svc 0);
      (* past the watermark: shed, with a positive retry-after *)
      (match Service.submit svc ~tenant:0 ~seq:3 (some_ot_query ()) with
      | Service.Shed { retry_after_s } ->
        Alcotest.(check bool) "retry_after positive" true (retry_after_s > 0.)
      | Service.Accepted _ -> Alcotest.fail "submit past watermark accepted");
      Alcotest.(check int) "shed counted" 1
        (Counters.snapshot metrics).Counters.sheds;
      (* pump serves the backlog; everything accepted completes Ok *)
      Alcotest.(check int) "pump serves the backlog" 3 (Service.pump svc);
      Alcotest.(check int) "served counted" 3
        (Counters.snapshot metrics).Counters.served;
      List.iter
        (fun tk ->
          match Service.await svc tk with
          | Service.Ot_reply (Ok _) -> ()
          | Service.Ot_reply (Error r) ->
            Alcotest.failf "OT rejected: %s" (Server.rejection_message r)
          | Service.Pir_reply _ -> Alcotest.fail "wrong reply kind")
        !accepted;
      (* the drained queue accepts again *)
      (match Service.submit svc ~tenant:0 ~seq:4 (some_ot_query ()) with
      | Service.Accepted _ -> ()
      | Service.Shed _ -> Alcotest.fail "drained queue must accept");
      Alcotest.(check int) "latency histogram sampled" 3
        (Histogram.count (Histogram.merge (Service.shard_latencies svc)));
      (* a hostile PIR query (even N) is served as the same typed
         rejection the oracle gives *)
      let _, (n, g) =
        Gr.Client.query ~plan:public.Server.plan ~index:0
          ~q_bits:params.Params.q_bits
          (Drbg.rand (Drbg.create ~seed:"svc-hostile" ()))
      in
      let hostile = Service.Pir_query { shard = 0; n = Z.succ n; g } in
      let expected = Service.respond_reference svc ~tenant:1 ~seq:0 hostile in
      (match expected with
       | Service.Pir_reply (Error (Server.Pir_query_malformed _)) -> ()
       | _ -> Alcotest.fail "oracle must reject an even modulus");
      (match Service.submit svc ~tenant:1 ~seq:0 hostile with
       | Service.Accepted tk ->
         Alcotest.(check bool) "hostile PIR: same rejection as the oracle"
           true
           (Service.await svc tk = expected)
       | Service.Shed _ -> Alcotest.fail "hostile PIR query shed");
      (* out-of-range PIR shard is a caller bug, not a shed *)
      match
        Service.submit svc ~tenant:0 ~seq:5
          (Service.Pir_query { shard = 1; n = Z.of_int 15; g = Z.of_int 2 })
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "out-of-range shard must raise")

let test_unseeded_retry_hint () =
  (* A shed before any request has completed finds the EWMA unseeded;
     the hint must still scale with the backlog (a deeper queue hints a
     longer wait), not collapse to a bare constant. *)
  let hint_at depth =
    Service.with_service ~queue_depth:depth ~spawn:false ~shards:1 core_server
      (fun svc ->
        for seq = 0 to depth - 1 do
          match Service.submit svc ~tenant:0 ~seq (some_ot_query ()) with
          | Service.Accepted _ -> ()
          | Service.Shed _ -> Alcotest.fail "shed below watermark"
        done;
        match Service.submit svc ~tenant:0 ~seq:depth (some_ot_query ()) with
        | Service.Shed { retry_after_s } -> retry_after_s
        | Service.Accepted _ -> Alcotest.fail "submit past watermark accepted")
  in
  let h1 = hint_at 1 and h8 = hint_at 8 in
  Alcotest.(check bool) "unseeded hint positive" true (h1 > 0.);
  Alcotest.(check bool)
    (Printf.sprintf "hint scales with backlog (%g vs %g)" h1 h8)
    true
    (h8 > 6. *. h1)

(* ------------------------------------------------------------------ *)
(* Concurrent serving is byte-identical to the oracle                   *)
(* ------------------------------------------------------------------ *)

let ot_responses_equal (a : Ot.response) (b : Ot.response) =
  let pairs_equal x y =
    Array.length x = Array.length y
    && Array.for_all2 (fun (u, v) (u', v') -> Z.equal u u' && Z.equal v v') x y
  in
  pairs_equal a.Ot.rows b.Ot.rows && pairs_equal a.Ot.cols b.Ot.cols

let replies_equal a b =
  match a, b with
  | Service.Ot_reply (Ok x), Service.Ot_reply (Ok y) -> ot_responses_equal x y
  | Service.Pir_reply (Ok x), Service.Pir_reply (Ok y) -> Z.equal x y
  | _ -> false

let test_concurrent_matches_oracle () =
  let shards = 3 in
  Service.with_service ~ot_seed:"svc-oracle" ~queue_depth:64 ~shards
    core_server (fun svc ->
      let rand = Drbg.rand (Drbg.create ~seed:"svc-oracle-queries" ()) in
      let cells = Params.private_cells params in
      (* a mixed burst from 6 tenants: OT and PIR interleaved *)
      let requests =
        Array.init 18 (fun k ->
            let tenant = k mod 6 and seq = k / 6 in
            let request =
              if k mod 2 = 0 then some_ot_query ()
              else begin
                let index = k mod cells in
                let _, (n, g) =
                  Gr.Client.query ~plan:public.Server.plan ~index
                    ~q_bits:params.Params.q_bits rand
                in
                Service.Pir_query
                  { shard = Server.shard_of_cell ~shards index; n; g }
              end
            in
            (tenant, seq, request))
      in
      (* oracle first: reference replies are scheduling-independent *)
      let expected =
        Array.map
          (fun (tenant, seq, request) ->
            Service.respond_reference svc ~tenant ~seq request)
          requests
      in
      let tickets =
        Array.map
          (fun (tenant, seq, request) ->
            match Service.submit svc ~tenant ~seq request with
            | Service.Accepted tk -> tk
            | Service.Shed _ -> Alcotest.fail "unexpected shed")
          requests
      in
      Array.iteri
        (fun k tk ->
          Alcotest.(check bool)
            (Printf.sprintf "reply %d byte-identical to oracle" k)
            true
            (replies_equal expected.(k) (Service.await svc tk)))
        tickets;
      (* resubmitting a (tenant, seq) re-derives identical bytes:
         idempotent resume after a lost response *)
      let tenant, seq, request = requests.(0) in
      match Service.submit svc ~tenant ~seq request with
      | Service.Accepted tk ->
        Alcotest.(check bool) "idempotent resume" true
          (replies_equal expected.(0) (Service.await svc tk))
      | Service.Shed _ -> Alcotest.fail "unexpected shed")

let test_batched_serving_matches_oracle () =
  (* A batch-draining service (pump mode, so drains really happen in
     full batches) must produce the same reply bytes as the sequential
     oracle, and the batch counters must account for every request.
     18 requests over 3 shards with batch 4 exercises ragged last
     batches on every queue. *)
  let shards = 3 in
  let metrics = Counters.create () in
  Service.with_service ~ot_seed:"svc-batch" ~metrics ~queue_depth:64 ~batch:4
    ~spawn:false ~shards core_server (fun svc ->
      Alcotest.(check int) "batch accessor" 4 (Service.batch svc);
      let rand = Drbg.rand (Drbg.create ~seed:"svc-batch-queries" ()) in
      let cells = Params.private_cells params in
      let requests =
        Array.init 18 (fun k ->
            let tenant = k mod 6 and seq = k / 6 in
            let request =
              if k mod 2 = 0 then some_ot_query ()
              else begin
                let index = k mod cells in
                let _, (n, g) =
                  Gr.Client.query ~plan:public.Server.plan ~index
                    ~q_bits:params.Params.q_bits rand
                in
                Service.Pir_query
                  { shard = Server.shard_of_cell ~shards index; n; g }
              end
            in
            (tenant, seq, request))
      in
      let expected =
        Array.map
          (fun (tenant, seq, request) ->
            Service.respond_reference svc ~tenant ~seq request)
          requests
      in
      let tickets =
        Array.map
          (fun (tenant, seq, request) ->
            match Service.submit svc ~tenant ~seq request with
            | Service.Accepted tk -> tk
            | Service.Shed _ -> Alcotest.fail "unexpected shed")
          requests
      in
      Alcotest.(check int) "pump serves all" 18 (Service.pump svc);
      Array.iteri
        (fun k tk ->
          Alcotest.(check bool)
            (Printf.sprintf "batched reply %d byte-identical to oracle" k)
            true
            (replies_equal expected.(k) (Service.await svc tk)))
        tickets;
      (* counters: every request is in exactly one drained batch, and
         with 18 requests over queues of depth <= 18 and batch 4, at
         least one dispatch drained a full batch and fewer dispatches
         ran than requests *)
      let s = Counters.snapshot metrics in
      Alcotest.(check int) "batch_size_sum = served" 18
        s.Counters.batch_size_sum;
      Alcotest.(check bool) "batching happened" true
        (s.Counters.batch_served > 0 && s.Counters.batch_served < 18);
      (* per-shard histograms partition the aggregate *)
      let per_shard =
        List.fold_left ( + ) 0
          (List.map Histogram.count (Service.shard_latencies svc))
      in
      Alcotest.(check int) "shard latency partition" 18 per_shard;
      Alcotest.(check int) "merged shard latency = aggregate" 18
        (Histogram.count (Histogram.merge (Service.shard_latencies svc))))

(* ------------------------------------------------------------------ *)
(* Fleet: concurrent rounds match the sequential reference              *)
(* ------------------------------------------------------------------ *)

let fleet_config =
  { Fleet.default_config with
    Fleet.tenants = 4; stop = Fleet.Rounds 2; record = true;
    seed = "fleet-identity" }

let run_fleet ?(batch = 1) ~spawn ~shards () =
  Service.with_service ~ot_seed:"fleet-svc" ~queue_depth:64 ~batch ~spawn
    ~shards core_server (fun svc -> Fleet.run svc fleet_config)

let entries_equal (a : Fleet.entry) (b : Fleet.entry) =
  a.Fleet.idq = b.Fleet.idq
  && String.equal a.Fleet.key b.Fleet.key
  && Z.equal a.Fleet.ge b.Fleet.ge
  && a.Fleet.pois = b.Fleet.pois

let test_fleet_concurrent_matches_sequential () =
  (* Same fleet, same seeds, same shard layout: the pump-mode service
     (single-threaded, deterministic order) and the 3-domain service
     must produce identical transcripts — every credential, every raw
     PIR group element, every decode. *)
  let reference = run_fleet ~spawn:false ~shards:3 () in
  let concurrent = run_fleet ~spawn:true ~shards:3 () in
  Alcotest.(check int) "rounds (reference)" 8 reference.Fleet.rounds;
  Alcotest.(check int) "rounds (concurrent)" 8 concurrent.Fleet.rounds;
  Alcotest.(check int) "no failures" 0
    (reference.Fleet.failed + concurrent.Fleet.failed);
  Array.iteri
    (fun tenant ref_log ->
      let con_log = concurrent.Fleet.transcripts.(tenant) in
      Alcotest.(check int)
        (Printf.sprintf "tenant %d round count" tenant)
        (List.length ref_log) (List.length con_log);
      List.iteri
        (fun round (r, c) ->
          Alcotest.(check bool)
            (Printf.sprintf "tenant %d round %d byte-identical" tenant round)
            true (entries_equal r c))
        (List.combine ref_log con_log))
    reference.Fleet.transcripts;
  (* and the transcripts are real: keys and POI counts match the
     server's trusted view of each credential's cell *)
  Array.iter
    (List.iter (fun (e : Fleet.entry) ->
         Alcotest.(check string) "credential key"
           (Server.trusted_cell_key core_server e.Fleet.idq) e.Fleet.key;
         let real =
           List.filter
             (fun p -> not (Poi.is_dummy p))
             (Server.trusted_cell_pois core_server e.Fleet.idq)
         in
         Alcotest.(check int) "POI count" (List.length real) e.Fleet.pois))
    concurrent.Fleet.transcripts

let test_fleet_batched_matches_sequential () =
  (* Batch draining is invisible to tenants: the same fleet against a
     batch-5 concurrent service produces transcripts byte-identical to
     the batch-1 pump-mode reference, and the aggregated per-shard
     service histogram saw every exchange (2 per round, no chaos). *)
  let reference = run_fleet ~spawn:false ~shards:3 () in
  let batched = run_fleet ~batch:5 ~spawn:true ~shards:3 () in
  Alcotest.(check int) "rounds (batched)" 8 batched.Fleet.rounds;
  Alcotest.(check int) "no failures" 0 batched.Fleet.failed;
  Array.iteri
    (fun tenant ref_log ->
      let bat_log = batched.Fleet.transcripts.(tenant) in
      Alcotest.(check int)
        (Printf.sprintf "tenant %d round count" tenant)
        (List.length ref_log) (List.length bat_log);
      List.iteri
        (fun round (r, c) ->
          Alcotest.(check bool)
            (Printf.sprintf "tenant %d round %d byte-identical" tenant round)
            true (entries_equal r c))
        (List.combine ref_log bat_log))
    reference.Fleet.transcripts;
  Alcotest.(check int) "service histogram saw every exchange" 16
    (Histogram.count batched.Fleet.service_latency)

(* ------------------------------------------------------------------ *)
(* Streaming updates: epoch fences                                      *)
(* ------------------------------------------------------------------ *)

(* A distinctive single-POI payload for cell [idq], placed at the cell
   centre so replay is always in-range. *)
let cell_payload part idq ~id =
  let center =
    Grid.cell_center (Grid.q_lattice part) (Grid.cell_of_index part idq)
  in
  [ Poi.make ~id ~position:center ~category:"update"
      ~name:(Printf.sprintf "upd-%d" id) ]

let decode_z st = function
  | Service.Pir_reply (Ok z) -> Gr.Client.decode st z
  | Service.Pir_reply (Error r) ->
    Alcotest.failf "PIR rejected: %s" (Server.rejection_message r)
  | Service.Ot_reply _ -> Alcotest.fail "wrong reply kind"

let test_epoch_fences_pump () =
  (* FIFO order is the epoch boundary: a ticket admitted before
     submit_update decodes the old ciphertext, one admitted after
     decodes the new one — even though both are served by the same
     pump call, after the master has already moved on. *)
  let server = Server.create params ~area pois in
  let pub = Server.public_info server in
  let part = Server.partition server in
  let metrics = Counters.create () in
  let shards = 3 in
  let rand = Drbg.rand (Drbg.create ~seed:"epoch-queries" ()) in
  let seq = ref 0 in
  Service.with_service ~metrics ~queue_depth:64 ~spawn:false ~shards server
    (fun svc ->
      Alcotest.(check int) "initial epoch" 0 (Service.epoch svc);
      Alcotest.(check int) "initial applied" 0 (Service.applied_epoch svc);
      (* submit a PIR query for [idq]; expected plaintext is the master
         ciphertext at admission time. *)
      let submit_q idq =
        let st, (n, g) =
          Gr.Client.query ~plan:pub.Server.plan ~index:idq
            ~q_bits:params.Params.q_bits rand
        in
        let expected = Z.of_bytes_be (Server.cell_ciphertext server idq) in
        incr seq;
        match
          Service.submit svc ~tenant:0 ~seq:!seq
            (Service.Pir_query
               { shard = Server.shard_of_cell ~shards idq; n; g })
        with
        | Service.Accepted tk -> (st, tk, expected)
        | Service.Shed _ -> Alcotest.fail "unexpected shed"
      in
      let idq = 4 in
      let old_z = Z.of_bytes_be (Server.cell_ciphertext server idq) in
      let before = submit_q idq in
      let e1 =
        Service.submit_update svc [ (idq, cell_payload part idq ~id:900_001) ]
      in
      Alcotest.(check int) "submit bumps epoch" 1 e1;
      Alcotest.(check int) "epoch accessor" 1 (Service.epoch svc);
      Alcotest.(check int) "not yet applied" 0 (Service.applied_epoch svc);
      (* the master is re-encoded at submit time... *)
      let new_z = Z.of_bytes_be (Server.cell_ciphertext server idq) in
      Alcotest.(check bool) "ciphertext changed" false (Z.equal old_z new_z);
      Alcotest.(check int) "master epoch" 1 (Server.pir_epoch server);
      let after = submit_q idq in
      (* ...but the in-queue ticket still decodes the old epoch. *)
      ignore (Service.pump svc);
      let st0, tk0, exp0 = before and st1, tk1, exp1 = after in
      Alcotest.(check int) "admitted at epoch 0" 0 (Service.ticket_epoch tk0);
      Alcotest.(check int) "admitted at epoch 1" 1 (Service.ticket_epoch tk1);
      Alcotest.(check bool) "old ticket decodes epoch-0 data" true
        (Z.equal exp0 old_z
         && Z.equal (decode_z st0 (Service.await svc tk0)) old_z);
      Alcotest.(check bool) "new ticket decodes epoch-1 data" true
        (Z.equal exp1 new_z
         && Z.equal (decode_z st1 (Service.await svc tk1)) new_z);
      Alcotest.(check int) "fence applied" 1 (Service.applied_epoch svc);
      (* a multi-cell batch spanning shards is one epoch bump *)
      let cells = [ 0; 1; 5 ] in
      let batch =
        List.mapi
          (fun i idq -> (idq, cell_payload part idq ~id:(900_100 + i)))
          cells
      in
      Alcotest.(check int) "batch bumps once" 2
        (Service.submit_update svc batch);
      ignore (Service.pump svc);
      Alcotest.(check int) "batch applied" 2 (Service.applied_epoch svc);
      (* replay each updated cell end to end *)
      List.iter
        (fun idq ->
          let st, tk, expected = submit_q idq in
          ignore (Service.pump svc);
          Alcotest.(check bool)
            (Printf.sprintf "cell %d serves updated data" idq)
            true
            (Z.equal (decode_z st (Service.await svc tk)) expected))
        cells;
      (* validation *)
      (match Service.submit_update svc [] with
       | exception Invalid_argument _ -> ()
       | _ -> Alcotest.fail "empty batch must raise");
      (match
         Service.submit_update svc
           [ (Grid.cell_count part, cell_payload part 0 ~id:1) ]
       with
       | exception Invalid_argument _ -> ()
       | _ -> Alcotest.fail "out-of-range cell must raise"));
  let s = Counters.snapshot metrics in
  Alcotest.(check int) "epoch_bumps = batches" 2 s.Counters.epoch_bumps;
  Alcotest.(check int) "update_applied = cells" 4 s.Counters.update_applied

let test_epoch_identity_concurrent () =
  (* Concurrent serving under churn: queries interleaved with update
     batches on a 3-domain service each decode exactly the database
     snapshot of their admission epoch, and every batch lands. *)
  let server = Server.create params ~area pois in
  let pub = Server.public_info server in
  let part = Server.partition server in
  let metrics = Counters.create () in
  let shards = 2 in
  let rand = Drbg.rand (Drbg.create ~seed:"epoch-concurrent" ()) in
  let seq = ref 0 in
  let batches = 3 in
  Service.with_service ~metrics ~queue_depth:64 ~spawn:true ~shards server
    (fun svc ->
      let submit_q idq =
        let st, (n, g) =
          Gr.Client.query ~plan:pub.Server.plan ~index:idq
            ~q_bits:params.Params.q_bits rand
        in
        let expected = Z.of_bytes_be (Server.cell_ciphertext server idq) in
        incr seq;
        match
          Service.submit svc ~tenant:(!seq mod 4) ~seq:!seq
            (Service.Pir_query
               { shard = Server.shard_of_cell ~shards idq; n; g })
        with
        | Service.Accepted tk -> (idq, st, tk, expected)
        | Service.Shed _ -> Alcotest.fail "unexpected shed"
      in
      let cells = Params.private_cells params in
      let pending = ref [] in
      for b = 1 to batches do
        (* queries admitted under epoch b-1 *)
        for k = 0 to 3 do
          pending := submit_q ((b + (k * 2)) mod cells) :: !pending
        done;
        let updates =
          List.map
            (fun idq ->
              (idq, cell_payload part idq ~id:((b * 1000) + idq)))
            [ b mod cells; (b + 3) mod cells ]
        in
        Alcotest.(check int) "epoch advances" b
          (Service.submit_update svc updates)
      done;
      (* queries admitted under the final epoch, one per shard: awaiting
         them drains every fence ahead of them *)
      for d = 0 to shards - 1 do
        pending := submit_q d :: !pending
      done;
      List.iter
        (fun (idq, st, tk, expected) ->
          Alcotest.(check bool)
            (Printf.sprintf "cell %d @ epoch %d decodes its snapshot" idq
               (Service.ticket_epoch tk))
            true
            (Z.equal (decode_z st (Service.await svc tk)) expected))
        (List.rev !pending);
      Alcotest.(check int) "all batches applied" batches
        (Service.applied_epoch svc);
      Alcotest.(check int) "epoch = applied" (Service.epoch svc)
        (Service.applied_epoch svc));
  let s = Counters.snapshot metrics in
  Alcotest.(check int) "epoch_bumps = batches" batches s.Counters.epoch_bumps;
  Alcotest.(check int) "update_applied = cells" (2 * batches)
    s.Counters.update_applied

let test_pooled_instance_survives_update () =
  (* A phi-hiding instance depends only on (plan, q_bits, seed), never on
     the database, so the pool needs no invalidation on updates: an
     instance taken from a prewarmed pool BEFORE a submit_update decodes
     the updated cell's new POIs after it. *)
  let server = Server.create params ~area pois in
  let pub = Server.public_info server in
  let part = Server.partition server in
  let shards = 2 and idq = 4 in
  let fresh = cell_payload part idq ~id:900_201 in
  let client = Client.create ~seed:"pool-update" pub in
  let pool_metrics = Counters.create () in
  Keypool.with_pool ~metrics:pool_metrics
    ~config:{ Keypool.capacity = 1; low_watermark = 0 }
    ~seed:"pool-update" ~plan:pub.Server.plan ~q_bits:params.Params.q_bits
    (fun pool ->
      Keypool.prewarm pool;
      Service.with_service ~queue_depth:16 ~spawn:false ~shards server
        (fun svc ->
          let cell = Client.locate client (Poi.position (List.hd fresh)) in
          let st1, ot_q = Client.stage1_query client cell in
          let cred =
            Client.stage1_decode client st1 (Server.ot_respond server ot_q)
          in
          Alcotest.(check int) "credential for the updated cell" idq
            (Client.credential_idq cred);
          let st2, (n, g) = Client.stage2_query ~pool client cred in
          Alcotest.(check int) "instance taken warm" 1
            (Counters.snapshot pool_metrics).Counters.pool_hits;
          ignore (Service.submit_update svc [ (idq, fresh) ]);
          ignore (Service.pump svc);
          Alcotest.(check int) "update applied" 1 (Service.applied_epoch svc);
          let tk =
            match
              Service.submit svc ~tenant:0 ~seq:1
                (Service.Pir_query
                   { shard = Server.shard_of_cell ~shards idq; n; g })
            with
            | Service.Accepted tk -> tk
            | Service.Shed _ -> Alcotest.fail "unexpected shed"
          in
          ignore (Service.pump svc);
          match Service.await svc tk with
          | Service.Pir_reply (Ok z) ->
            Alcotest.(check bool) "decodes the new POIs" true
              (List.equal Poi.equal fresh (Client.stage2_decode client st2 z))
          | _ -> Alcotest.fail "expected a PIR reply"))

let pir_query_for pub rand idq =
  Gr.Client.query ~plan:pub.Server.plan ~index:idq
    ~q_bits:params.Params.q_bits rand

let master_decode server st (n, g) =
  match Server.pir_respond_checked server ~n ~g with
  | Ok z -> Gr.Client.decode st z
  | Error r -> Alcotest.failf "master rejected: %s" (Server.rejection_message r)

let test_master_reads_after_service_update () =
  (* A Service's shards own the only encodes its replies read, so
     submit_update repairs no master encode: at one shard the master
     handed its encode over, at two it drops its own.  Either way a
     master-path read after the update serves the submitted epoch's
     contents, before the shard's fence has even landed. *)
  List.iter
    (fun shards ->
      let server = Server.create params ~area pois in
      let pub = Server.public_info server in
      let part = Server.partition server in
      let rand = Drbg.rand (Drbg.create ~seed:"master-after-update" ()) in
      let idq = 4 in
      Service.with_service ~queue_depth:16 ~spawn:false ~shards server
        (fun svc ->
          let old_z = Z.of_bytes_be (Server.cell_ciphertext server idq) in
          let e =
            Service.submit_update svc
              [ (idq, cell_payload part idq ~id:900_301) ]
          in
          Alcotest.(check int) "master epoch = submitted epoch" e
            (Server.pir_epoch server);
          Alcotest.(check int) "fence not yet applied" 0
            (Service.applied_epoch svc);
          let new_z = Z.of_bytes_be (Server.cell_ciphertext server idq) in
          Alcotest.(check bool) "ciphertext changed" false
            (Z.equal old_z new_z);
          let st, q = pir_query_for pub rand idq in
          Alcotest.(check bool)
            (Printf.sprintf "master decodes the new block (%d shards)" shards)
            true
            (Z.equal (master_decode server st q) new_z);
          ignore (Service.pump svc);
          Alcotest.(check int) "fence applied" e (Service.applied_epoch svc)))
    [ 1; 2 ]

let test_successive_one_shard_services () =
  (* Each one-shard Service takes the master's encode as its shard: the
     first the encode built at create, the second one rebuilt from the
     contents restaged in between.  Both serve oracle-identical replies
     that decode the contents of their epoch. *)
  let server = Server.create params ~area pois in
  let pub = Server.public_info server in
  let part = Server.partition server in
  let rand = Drbg.rand (Drbg.create ~seed:"successive-services" ()) in
  let cells = Params.private_cells params in
  let serve_every_cell svc label =
    for idq = 0 to cells - 1 do
      let st, (n, g) = pir_query_for pub rand idq in
      let request = Service.Pir_query { shard = 0; n; g } in
      let expected =
        Service.respond_reference svc ~tenant:0 ~seq:idq request
      in
      let want = Z.of_bytes_be (Server.cell_ciphertext server idq) in
      match Service.submit svc ~tenant:0 ~seq:idq request with
      | Service.Accepted tk ->
        ignore (Service.pump svc);
        let reply = Service.await svc tk in
        Alcotest.(check bool)
          (Printf.sprintf "%s: cell %d reply = oracle bytes" label idq)
          true (replies_equal reply expected);
        Alcotest.(check bool)
          (Printf.sprintf "%s: cell %d decodes epoch %d" label idq
             (Service.ticket_epoch tk))
          true
          (Z.equal (decode_z st reply) want)
      | Service.Shed _ -> Alcotest.fail "unexpected shed"
    done
  in
  Service.with_service ~queue_depth:16 ~spawn:false ~shards:1 server
    (fun svc ->
      serve_every_cell svc "first service";
      ignore
        (Service.submit_update svc [ (2, cell_payload part 2 ~id:900_401) ]);
      (* the oracle reads the shard inline: land the fence first *)
      ignore (Service.pump svc);
      serve_every_cell svc "first service, after the update");
  Server.update_cell server ~idq:6 (cell_payload part 6 ~id:900_402);
  Alcotest.(check int) "both updates counted" 2 (Server.pir_epoch server);
  Service.with_service ~queue_depth:16 ~spawn:false ~shards:1 server
    (fun svc -> serve_every_cell svc "second service")

let test_update_cell_after_hand_off () =
  (* The standalone update path on a master whose encode went to a
     Service: the update restages only, the next master read rebuilds
     from the current ciphertexts, and a later update repairs that
     rebuilt encode in place — equal to a fresh encode. *)
  let server = Server.create params ~area pois in
  let pub = Server.public_info server in
  let part = Server.partition server in
  let rand = Drbg.rand (Drbg.create ~seed:"update-after-hand-off" ()) in
  Service.with_service ~spawn:false ~shards:1 server (fun _ -> ());
  let check_cell idq =
    let st, q = pir_query_for pub rand idq in
    Alcotest.(check bool)
      (Printf.sprintf "cell %d decodes its new contents" idq)
      true
      (Z.equal (master_decode server st q)
         (Z.of_bytes_be (Server.cell_ciphertext server idq)))
  in
  Server.update_cell server ~idq:5 (cell_payload part 5 ~id:900_501);
  check_cell 5;
  Server.update_cell server ~idq:7 (cell_payload part 7 ~id:900_502);
  check_cell 7;
  Alcotest.(check int) "content epoch" 2 (Server.pir_epoch server);
  let fresh =
    Gr.Server.create pub.Server.plan
      (Array.init (Params.private_cells params) (fun i ->
           Z.of_bytes_be (Server.cell_ciphertext server i)))
  in
  Alcotest.(check int) "e width = fresh encode's" (Gr.Server.e_bits fresh)
    (Server.pir_e_bits server);
  let master = Server.take_pir server in
  Alcotest.(check bool) "e = fresh encode of the current ciphertexts" true
    (Z.equal (Gr.Server.e master) (Gr.Server.e fresh));
  Alcotest.(check int) "the rebuilt encode was repaired once" 1
    (Gr.Server.epoch master)

let fleet_under_chaos ?(stop = Fleet.Rounds 2) policy =
  let config =
    { Fleet.default_config with
      Fleet.tenants = 3; stop; record = true;
      seed = "fleet-chaos"; policy;
      chaos = Some (Chaos.drop_corrupt ~p:0.3) }
  in
  Service.with_service ~ot_seed:"fleet-chaos-svc" ~queue_depth:64 ~spawn:true
    ~shards:2 core_server (fun svc ->
      let outcome = Fleet.run svc config in
      Alcotest.(check int) "every drop or shed is a retry or a failed round"
        (outcome.Fleet.drops + outcome.Fleet.sheds)
        (outcome.Fleet.retries + outcome.Fleet.failed);
      (* completed rounds decode correctly even under loss *)
      Array.iter
        (List.iter (fun (e : Fleet.entry) ->
             Alcotest.(check string) "credential key under chaos"
               (Server.trusted_cell_key core_server e.Fleet.idq) e.Fleet.key))
        outcome.Fleet.transcripts;
      outcome)

let test_fleet_under_chaos () =
  (* Packet loss composes: with per-tenant chaos at a heavy fault rate,
     the fleet still completes rounds, and every failed attempt is
     accounted for.  A drop or shed is followed by exactly one retry,
     unless it was the budget's last attempt, which abandons the round
     instead: drops + sheds = retries + failed.  The default budget; a
     1-attempt budget, on which every drop abandons its round; and a
     deadline that finds tenants backing off, each of which fails its
     round without making the retry it waited for. *)
  let policy = Fleet.default_config.Fleet.policy in
  let default = fleet_under_chaos policy in
  Alcotest.(check bool) "completes rounds under loss" true
    (default.Fleet.rounds > 0);
  let tight = fleet_under_chaos { policy with Lbq_net.Retry.max_attempts = 1 } in
  Alcotest.(check bool) "a 1-attempt budget abandons rounds" true
    (tight.Fleet.failed > 0);
  ignore
    (fleet_under_chaos ~stop:(Fleet.Duration 0.5)
       { policy with Lbq_net.Retry.timeout_s = 0.1 })

(* ------------------------------------------------------------------ *)
(* The unmeasured sink                                                  *)
(* ------------------------------------------------------------------ *)

(* Callers that pass no [metrics] share [Counters.null], whose bump
   sites skip on physical equality so unmeasured callers neither race
   on nor pay for one shared set of cells.  After a round, a faulty
   session, keypool takes and a batched pump, all on default metrics,
   every cell of [null] must still read 0. *)
let test_null_counters_stay_zero () =
  let position = Coord.make ~x:1200. ~y:2300. in
  let r =
    Protocol.run_round (Client.create ~seed:"null-round" public) core_server
      ~position
  in
  Alcotest.(check bool) "round decodes" true (r.Protocol.pois <> []);
  let chaos =
    Chaos.create ~config:(Chaos.drop_corrupt ~p:0.5) ~seed:"null-chaos" ()
  in
  let relay = Lbq_net.Relay.create ~chaos ~link:Lbq_net.Link.wifi () in
  let _, stats =
    Lbq_net.Session.run_round ~retry:Lbq_net.Retry.default
      ~jitter_seed:"null-chaos" relay
      (Client.create ~seed:"null-session" public)
      core_server ~position
  in
  Alcotest.(check bool) "session retried" true
    (stats.Lbq_net.Session.retries > 0);
  Keypool.with_pool ~config:{ Keypool.capacity = 1; low_watermark = 0 }
    ~seed:"null-pool" ~plan:public.Server.plan ~q_bits:params.Params.q_bits
    (fun pool ->
      Keypool.prewarm pool;
      (* a hit, then a miss the caller steals and builds *)
      ignore (Keypool.take pool ~index:0);
      ignore (Keypool.take pool ~index:0));
  Service.with_service ~queue_depth:8 ~batch:4 ~spawn:false ~shards:1
    core_server (fun svc ->
      let rand = Drbg.rand (Drbg.create ~seed:"null-batch" ()) in
      for seq = 0 to 3 do
        let request =
          if seq mod 2 = 0 then some_ot_query ()
          else begin
            let _, (n, g) =
              Gr.Client.query ~plan:public.Server.plan ~index:seq
                ~q_bits:params.Params.q_bits rand
            in
            Service.Pir_query { shard = 0; n; g }
          end
        in
        match Service.submit svc ~tenant:0 ~seq request with
        | Service.Accepted _ -> ()
        | Service.Shed _ -> Alcotest.fail "unexpected shed"
      done;
      Alcotest.(check int) "one batch served" 4 (Service.pump svc));
  if Counters.snapshot Counters.null <> Counters.snapshot (Counters.create ())
  then
    Alcotest.failf "Counters.null was written: %a" Counters.pp Counters.null

let () =
  Alcotest.run "lbq_serve"
    [ ("histogram",
       [ Alcotest.test_case "bucket math exact" `Quick test_histogram_buckets;
         Alcotest.test_case "quantiles exact on known inputs" `Quick
           test_histogram_quantiles ]);
      ("shards",
       [ Alcotest.test_case "plan_restrict validation" `Quick
           test_plan_restrict_validation;
         Alcotest.test_case "shard responses decode identically" `Quick
           test_shard_decode_equivalence ]);
      ("admission",
       [ Alcotest.test_case "watermark sheds, pump drains, re-accepts" `Quick
           test_admission_control;
         Alcotest.test_case "unseeded retry hint scales with backlog" `Quick
           test_unseeded_retry_hint ]);
      ("identity",
       [ Alcotest.test_case "concurrent replies = oracle bytes" `Quick
           test_concurrent_matches_oracle;
         Alcotest.test_case "batched serving = oracle bytes" `Quick
           test_batched_serving_matches_oracle;
         Alcotest.test_case "fleet concurrent = sequential reference" `Quick
           test_fleet_concurrent_matches_sequential;
         Alcotest.test_case "fleet batched = sequential reference" `Quick
           test_fleet_batched_matches_sequential ]);
      ("epochs",
       [ Alcotest.test_case "FIFO fences split old/new data" `Quick
           test_epoch_fences_pump;
         Alcotest.test_case "concurrent churn decodes per-epoch snapshots"
           `Quick test_epoch_identity_concurrent;
         Alcotest.test_case "pooled instance decodes post-update POIs"
           `Quick test_pooled_instance_survives_update;
         Alcotest.test_case "master read after a Service update" `Quick
           test_master_reads_after_service_update;
         Alcotest.test_case "successive one-shard services = oracle" `Quick
           test_successive_one_shard_services;
         Alcotest.test_case "update_cell after a hand-off = fresh encode"
           `Quick test_update_cell_after_hand_off ]);
      ("chaos",
       [ Alcotest.test_case "rounds complete under packet loss" `Quick
           test_fleet_under_chaos ]);
      ("metrics",
       [ Alcotest.test_case "Counters.null stays zero" `Quick
           test_null_counters_stay_zero ]) ]
