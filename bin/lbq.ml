(* lbq — command-line front end.

     lbq demo      one protocol round over a synthetic city
     lbq walk      nearest-POI queries along a random walk
     lbq serve     sustained multi-tenant load over sharded worker domains
     lbq backends  one round through each pluggable PIR backend
     lbq groupgen  generate fresh Schnorr group parameters
     lbq inspect   show a parameter preset and its derived sizes

   Every command is deterministic given --seed. *)

open Cmdliner
open Lbq_geo
open Lbq_core
module Schnorr = Lbq_group.Schnorr
module Drbg = Lbq_crypto.Drbg
module Keypool = Lbq_cache.Keypool
module Counters = Lbq_metrics.Counters

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                     *)
(* ------------------------------------------------------------------ *)

let seed_arg =
  Arg.(value & opt string "lbq-cli" & info [ "seed" ] ~docv:"SEED"
         ~doc:"Deterministic seed for all randomness.")

let preset_arg =
  let presets = [ "test", `Test; "mid", `Mid; "paper", `Paper ] in
  Arg.(value & opt (enum presets) `Test & info [ "preset" ] ~docv:"PRESET"
         ~doc:"Parameter preset: $(b,test) (fast), $(b,mid), or $(b,paper) \
               (the paper's 1024-bit setting; slow).")

let params_of_preset ~seed = function
  | `Test -> Params.test ~seed ()
  | `Mid -> Params.mid ~seed ()
  | `Paper -> Params.paper ~seed ()

let db_arg =
  Arg.(value & opt (some file) None & info [ "db" ] ~docv:"FILE"
         ~doc:"Load the POI database from a file written by $(b,gen-city) \
               instead of synthesising one.")

let prewarm_arg =
  Arg.(value & flag & info [ "prewarm" ]
         ~doc:"Pre-build phi-hiding PIR instances for every private cell on \
               background domains before the first round (the offline/online \
               query split), then draw stage-2 queries from the pool and \
               print its hit/miss statistics.")

(* Instances kept per cell, sized for the usual smallest block: one
   nearest-POI step of [walk] cycles its [Queries.block_rounds] rounds
   over the clipped 3x3 block, and a fully reachable corner's 2x2
   fetches one cell ceil(9/4) = 3 times.  A block with cells that have
   no public centre has fewer targets, down to the single at-position
   cell fetched 9 times; those steps take more pool misses.
   Consecutive steps in one block outrun the background refills
   anyway, so a cell is restocked after every take (watermark
   capacity - 1). *)
let keypool_capacity =
  let corner_block = 4 in
  (Queries.block_rounds + corner_block - 1) / corner_block

(* The pool's counters and current depth, one line. *)
let pp_keypool fmt (c, depth) =
  Format.fprintf fmt
    "@[keypool: %d hits, %d misses (%d steals), %d refills; %d instance(s) \
     warm across %d stripe(s), depth min %d max %d@]"
    c.Counters.pool_hits c.Counters.pool_misses c.Counters.pool_steals
    c.Counters.pool_refills
    (Array.fold_left ( + ) 0 depth)
    (Array.length depth)
    (Array.fold_left min max_int depth)
    (Array.fold_left max 0 depth)

(* The offline/online split from the CLI: prewarm a keypool over the
   deployment's plan, hand it to every round, and dump the pool counters
   when done. *)
let with_keypool ?(metrics = Counters.create ()) ~prewarm ~seed
    ~(params : Params.t) server f =
  if not prewarm then f None
  else begin
    let plan = (Server.public_info server).Server.plan in
    Keypool.with_pool ~metrics
      ~config:
        { Keypool.capacity = keypool_capacity;
          low_watermark = keypool_capacity - 1 }
      ~domains:2 ~seed:(seed ^ "-keypool") ~plan
      ~q_bits:params.Params.q_bits
      (fun pool ->
        let t0 = Unix.gettimeofday () in
        Keypool.prewarm pool;
        Format.printf
          "Keypool prewarmed: %d instance(s) per cell across %d cell(s) in \
           %.2f s.@.@."
          (Keypool.capacity pool)
          (Lbq_pir.Gr.plan_size plan)
          (Unix.gettimeofday () -. t0);
        let result = f (Some pool) in
        Format.printf "@.%a@." pp_keypool
          (Counters.snapshot metrics, Keypool.depth pool);
        result)
  end

(* A city sized to the preset, thinned to its rmax budget. *)
let build_city ?db ~seed (params : Params.t) =
  let side = 1000. *. float_of_int params.Params.private_cols in
  let area =
    Coord.Rect.make ~min:(Coord.make ~x:0. ~y:0.)
      ~max:(Coord.make ~x:side ~y:side)
  in
  let raw =
    match db with
    | Some path ->
      List.filter
        (fun p -> Coord.Rect.contains area (Poi.position p))
        (Poi_file.load path)
    | None ->
      Synth.generate ~seed
        (Synth.city ~side ~count:(Params.private_cells params * 6) ~clusters:3 ())
  in
  let q =
    Grid.lattice ~area ~rows:params.Params.private_rows
      ~cols:params.Params.private_cols
  in
  let counts = Hashtbl.create 32 in
  let pois =
    List.filter
      (fun p ->
        let c = Grid.cell_of_coord q (Poi.position p) in
        let k = (c.Grid.row * params.Params.private_cols) + c.Grid.col in
        let seen = Option.value ~default:0 (Hashtbl.find_opt counts k) in
        if seen < params.Params.rmax then begin
          Hashtbl.replace counts k (seen + 1);
          true
        end
        else false)
      raw
  in
  area, pois

(* ------------------------------------------------------------------ *)
(* demo                                                                 *)
(* ------------------------------------------------------------------ *)

let demo preset seed db prewarm x y =
  let params = params_of_preset ~seed:(seed ^ "-params") preset in
  let area, pois = build_city ?db ~seed params in
  Format.printf "Initialising server over %d POIs ...@." (List.length pois);
  let server = Server.create params ~area pois in
  let client = Client.create ~seed:(seed ^ "-user") (Server.public_info server) in
  let side = Coord.Rect.width area in
  let position =
    Coord.make
      ~x:(Float.min (Float.max x 0.) side)
      ~y:(Float.min (Float.max y 0.) side)
  in
  Format.printf "User at %a.@.@." Coord.pp position;
  with_keypool ~prewarm ~seed ~params server (fun pool ->
      let result = Protocol.run_round ?pool client server ~position in
      Format.printf "%a@.@." Protocol.pp_transcript result.Protocol.transcript;
      Format.printf "Cell %d returned %d record(s):@."
        (Client.credential_idq result.Protocol.credential)
        (List.length result.Protocol.pois);
      List.iter (fun p -> Format.printf "  %a@." Poi.pp p) result.Protocol.pois;
      `Ok ())

let demo_cmd =
  let x = Arg.(value & opt float 1234. & info [ "x" ] ~doc:"User x (metres).") in
  let y = Arg.(value & opt float 2345. & info [ "y" ] ~doc:"User y (metres).") in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run one protocol round over a synthetic city.")
    Term.(ret (const demo $ preset_arg $ seed_arg $ db_arg $ prewarm_arg $ x $ y))

(* ------------------------------------------------------------------ *)
(* walk                                                                 *)
(* ------------------------------------------------------------------ *)

let walk preset seed db prewarm steps =
  if steps <= 0 then `Error (false, "--steps must be positive")
  else begin
    let params = params_of_preset ~seed:(seed ^ "-params") preset in
    let area, pois = build_city ?db ~seed params in
    let server = Server.create params ~area pois in
    let client = Client.create ~seed:(seed ^ "-user") (Server.public_info server) in
    let path =
      Synth.walk ~seed:(seed ^ "-walk") ~area ~steps
        ~stride:(Coord.Rect.width area /. 8.) ()
    in
    let info = Server.public_info server in
    with_keypool ~prewarm ~seed ~params server (fun pool ->
        let run ~position = Protocol.run_round ?pool client server ~position in
        List.iteri
          (fun i position ->
            match Queries.nearest info run ~position with
            | Some (p, r) ->
              Format.printf "step %2d %a: nearest %a (%.0f m), %s, %d rounds@."
                i Coord.pp position Poi.pp p
                (Coord.distance position (Poi.position p))
                (if r.Queries.exact then
                   Printf.sprintf "exact within %.0f m" r.Queries.radius
                 else "not certified")
                r.Queries.rounds
            | None ->
              Format.printf "step %2d %a: neighbourhood empty@." i Coord.pp
                position)
          path;
        `Ok ())
  end

let walk_cmd =
  let steps =
    Arg.(value & opt int 5 & info [ "steps" ] ~doc:"Number of walk steps.")
  in
  Cmd.v
    (Cmd.info "walk"
       ~doc:"Private nearest-POI queries along a random walk: each step \
             fetches the 3x3 private-cell neighbourhood in a fixed number of \
             rounds and prints the radius within which the answer is exact.")
    Term.(ret (const walk $ preset_arg $ seed_arg $ db_arg $ prewarm_arg $ steps))

(* ------------------------------------------------------------------ *)
(* serve                                                                *)
(* ------------------------------------------------------------------ *)

module Service = Lbq_net.Service
module Fleet = Lbq_net.Fleet
module Chaos = Lbq_net.Chaos
module Histogram = Lbq_metrics.Histogram

(* Boot the multi-tenant service layer over the deployment and drive it
   with a closed-loop fleet of simulated clients, then dump per-tenant
   and aggregate statistics.  The service stripes the stage-2 database
   across --domains worker domains and sheds submits past --queue-depth
   with a retry-after hint the fleet's retry policy honours. *)
let serve preset seed db prewarm clients domains duration queue_depth batch
    loss reuse churn =
  if clients <= 0 then `Error (false, "--clients must be positive")
  else if duration <= 0. then `Error (false, "--duration must be positive")
  else if queue_depth <= 0 then `Error (false, "--queue-depth must be positive")
  else if batch <= 0 then `Error (false, "--batch must be positive")
  else if loss < 0. || loss >= 1. then `Error (false, "--loss must be in [0, 1)")
  else if churn < 0 then `Error (false, "--churn must be non-negative")
  else begin
    let params = params_of_preset ~seed:(seed ^ "-params") preset in
    let max_domains = min 64 (Params.private_cells params) in
    if domains < 1 || domains > max_domains then
      `Error
        (false,
         Printf.sprintf "--domains must be in 1..%d for this preset"
           max_domains)
    else begin
      let area, pois = build_city ?db ~seed params in
      Format.printf "Initialising server over %d POIs ...@." (List.length pois);
      let svc_metrics = Counters.create () in
      let server = Server.create ~metrics:svc_metrics params ~area pois in
      with_keypool ~metrics:svc_metrics ~prewarm ~seed ~params server
        (fun pool ->
          let chaos =
            if loss > 0. then Some (Chaos.drop_corrupt ~p:loss) else None
          in
          Format.printf
            "Serving %d client(s) across %d domain(s), queue depth %d, batch \
             %d%s, for %.1f s ...@.@."
            clients domains queue_depth batch
            (if loss > 0. then
               Printf.sprintf ", %.0f%% frame loss" (100. *. loss)
             else "")
            duration;
          let outcome =
            Service.with_service ~ot_seed:(seed ^ "-svc")
              ~metrics:svc_metrics ~queue_depth ~batch
              ~shards:domains server (fun svc ->
                (* --churn: replay K deterministic cell-replacement
                   updates through the service's epoch pipeline, then
                   wait for every batch to land so the fleet opens on a
                   settled database. *)
                if churn > 0 then begin
                  let updates =
                    Synth.churn ~seed:(seed ^ "-churn")
                      ~partition:(Server.partition server) ~steps:churn ()
                  in
                  List.iter
                    (fun (u : Poi_file.update) ->
                      ignore
                        (Service.submit_update svc
                           [ (u.Poi_file.cell, u.Poi_file.pois) ]))
                    updates;
                  while Service.applied_epoch svc < Service.epoch svc do
                    Unix.sleepf 0.001
                  done;
                  Format.printf
                    "Applied %d churn update(s); database at epoch %d.@.@."
                    churn (Service.epoch svc)
                end;
                Fleet.run ?pool svc
                  { Fleet.default_config with
                    Fleet.tenants = clients;
                    stop = Fleet.Duration duration;
                    chaos;
                    seed = seed ^ "-fleet";
                    reuse })
          in
          Format.printf "tenant    rounds  failed   sheds retries   drops@.";
          Array.iteri
            (fun i (t : Fleet.tenant_stats) ->
              let c = t.Fleet.counters in
              Format.printf "%6d  %8d %7d %7d %7d %7d@." i
                t.Fleet.rounds_completed t.Fleet.rounds_failed
                c.Counters.sheds c.Counters.retries c.Counters.drops)
            outcome.Fleet.per_tenant;
          Format.printf "%6s  %8d %7d %7d %7d %7d@.@." "all"
            outcome.Fleet.rounds outcome.Fleet.failed outcome.Fleet.sheds
            outcome.Fleet.retries outcome.Fleet.drops;
          let h = outcome.Fleet.round_latency in
          Format.printf
            "%.1f rounds/s over %.1f s; round latency p50 %.1f ms  p95 %.1f \
             ms  p99 %.1f ms  max %.1f ms@."
            outcome.Fleet.qps outcome.Fleet.duration_s
            (1000. *. Histogram.quantile_s h 0.50)
            (1000. *. Histogram.quantile_s h 0.95)
            (1000. *. Histogram.quantile_s h 0.99)
            (1000. *. Histogram.max_s h);
          let sc = Counters.snapshot svc_metrics in
          if sc.Counters.batch_served > 0 then
            Format.printf
              "service: %d request(s) over %d dispatch(es), mean drained \
               batch %.2f@."
              sc.Counters.batch_size_sum sc.Counters.batch_served
              (float_of_int sc.Counters.batch_size_sum
               /. float_of_int sc.Counters.batch_served);
          if sc.Counters.epoch_bumps > 0 || sc.Counters.update_blocks > 0 then
            Format.printf
              "updates: %d cell(s) applied across %d epoch bump(s), %d block \
               write(s)@."
              sc.Counters.update_applied sc.Counters.epoch_bumps
              sc.Counters.update_blocks;
          Format.printf "%a@." Histogram.pp h;
          `Ok ())
    end
  end

let serve_cmd =
  let clients =
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N"
           ~doc:"Number of simulated clients (closed loop, one exchange in \
                 flight each).")
  in
  let domains =
    Arg.(value & opt int 2 & info [ "domains" ] ~docv:"N"
           ~doc:"Worker domains; the stage-2 database is striped across \
                 them, so each serves a ~1/N-size exponent.")
  in
  let duration =
    Arg.(value & opt float 5. & info [ "duration" ] ~docv:"SECONDS"
           ~doc:"Stop starting new rounds after this long.")
  in
  let queue_depth =
    Arg.(value & opt int 64 & info [ "queue-depth" ] ~docv:"N"
           ~doc:"Per-domain bounded-queue high watermark; submits past it \
                 are shed with a retry-after hint.")
  in
  let batch =
    Arg.(value & opt int 1 & info [ "batch" ] ~docv:"K"
           ~doc:"Requests a worker drains per dispatch under one lock \
                 acquisition; each is answered on its own, so replies \
                 stay byte-identical to sequential serving.")
  in
  let loss =
    Arg.(value & opt float 0. & info [ "loss" ] ~docv:"P"
           ~doc:"Drop/corrupt each frame with probability P (chaos \
                 injection); lost exchanges are retried.")
  in
  let reuse =
    Arg.(value & flag & info [ "reuse" ]
           ~doc:"Reuse each tenant's phi-hiding instance on later same-cell \
                 rounds (paper \xc2\xa7VI: faster, but lets the server link \
                 those rounds).")
  in
  let churn =
    Arg.(value & opt int 0 & info [ "churn" ] ~docv:"K"
           ~doc:"Replay K deterministic cell-replacement updates through \
                 the streaming-update pipeline (incremental CRT fix-ups, \
                 one epoch bump each) before opening to clients.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Boot the multi-tenant service layer and drive it with N \
             simulated clients; dump per-tenant and aggregate stats at exit.")
    Term.(ret (const serve $ preset_arg $ seed_arg $ db_arg $ prewarm_arg
               $ clients $ domains $ duration $ queue_depth $ batch $ loss
               $ reuse $ churn))

(* ------------------------------------------------------------------ *)
(* backends                                                             *)
(* ------------------------------------------------------------------ *)

(* One stage-1 credential, then the same cell fetched through each
   requested PIR backend: communication, predicted-vs-measured server
   work, per-phase timings, and a cross-backend agreement check on the
   decrypted POIs. *)
let backends preset seed db which x y =
  let params = params_of_preset ~seed:(seed ^ "-params") preset in
  let area, pois = build_city ?db ~seed params in
  Format.printf "Initialising server over %d POIs ...@." (List.length pois);
  let server = Server.create params ~area pois in
  let client = Client.create ~seed:(seed ^ "-user") (Server.public_info server) in
  let arena =
    Arena.create ~metrics:(Arena.Counters.create ()) ~seed:(seed ^ "-arena")
      server
  in
  let names =
    match which with
    | [] -> Arena.names arena
    | names -> names
  in
  match
    List.find_opt (fun n -> not (List.mem n (Arena.names arena))) names
  with
  | Some bad ->
    `Error
      (false,
       Printf.sprintf "unknown backend %S (have: %s)" bad
         (String.concat ", " (Arena.names arena)))
  | None ->
    let side = Coord.Rect.width area in
    let position =
      Coord.make
        ~x:(Float.min (Float.max x 0.) side)
        ~y:(Float.min (Float.max y 0.) side)
    in
    Format.printf "User at %a.@.@." Coord.pp position;
    let drbg = Drbg.create ~domain:"lbq-backends" ~seed:(seed ^ "-rounds") () in
    let rand = Drbg.rand drbg in
    let cell = Client.locate client position in
    let st1, ot_query = Client.stage1_query client cell in
    let ot_resp = Server.ot_respond server ot_query in
    let cred = Client.stage1_decode client st1 ot_resp in
    Format.printf "Stage 1 credential: cell %d.@.@."
      (Client.credential_idq cred);
    let results =
      List.map
        (fun name ->
          let pois, round =
            Arena.fetch ~clock:Unix.gettimeofday ~rand ~backend:name arena cred
          in
          (name, pois, round))
        names
    in
    List.iter
      (fun (name, pois, (r : Arena.Instance.round)) ->
        Format.printf
          "%-4s query %5d B  response %5d B  server mults %8d (predicted \
           %8d)  query %6.1f ms  respond %6.1f ms  decode %6.1f ms  %d \
           record(s)@."
          name
          (String.length r.Arena.Instance.query_wire)
          (String.length r.Arena.Instance.response_wire)
          r.Arena.Instance.measured_server_mults
          r.Arena.Instance.predicted.Arena.B.server_mults
          (1000. *. r.Arena.Instance.query_s)
          (1000. *. r.Arena.Instance.respond_s)
          (1000. *. r.Arena.Instance.decode_s)
          (List.length pois))
      results;
    (match results with
     | [] | [ _ ] -> ()
     | (ref_name, ref_pois, _) :: rest ->
       let agree =
         List.for_all (fun (_, pois, _) -> pois = ref_pois) rest
       in
       Format.printf "@.Cross-backend agreement with %s: %s@." ref_name
         (if agree then "OK" else "MISMATCH"));
    `Ok ()

let backends_cmd =
  let which =
    Arg.(value & opt_all string [] & info [ "backend" ] ~docv:"NAME"
           ~doc:"Stage-2 PIR backend to run (repeatable); default: all \
                 registered backends (gr, qr, lwe).")
  in
  let x = Arg.(value & opt float 1234. & info [ "x" ] ~doc:"User x (metres).") in
  let y = Arg.(value & opt float 2345. & info [ "y" ] ~doc:"User y (metres).") in
  Cmd.v
    (Cmd.info "backends"
       ~doc:"Fetch the same cell through each pluggable PIR backend and \
             compare cost and output.")
    Term.(ret (const backends $ preset_arg $ seed_arg $ db_arg $ which $ x $ y))

(* ------------------------------------------------------------------ *)
(* gen-city                                                             *)
(* ------------------------------------------------------------------ *)

let gen_city seed out side count clusters =
  if side <= 0. || count <= 0 then `Error (false, "bad --side/--count")
  else begin
    let pois = Synth.generate ~seed (Synth.city ~side ~count ~clusters ()) in
    Poi_file.save out pois;
    Format.printf "wrote %d POIs over a %.0f m square to %s@."
      (List.length pois) side out;
    `Ok ()
  end

let gen_city_cmd =
  let out =
    Arg.(value & opt string "city.poi" & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"Output file.")
  in
  let side =
    Arg.(value & opt float 3000. & info [ "side" ] ~doc:"City side (metres).")
  in
  let count =
    Arg.(value & opt int 200 & info [ "count" ] ~doc:"Number of POIs.")
  in
  let clusters =
    Arg.(value & opt int 4 & info [ "clusters" ] ~doc:"Dense centres.")
  in
  Cmd.v
    (Cmd.info "gen-city" ~doc:"Generate a synthetic POI database file.")
    Term.(ret (const gen_city $ seed_arg $ out $ side $ count $ clusters))

(* ------------------------------------------------------------------ *)
(* groupgen                                                             *)
(* ------------------------------------------------------------------ *)

let groupgen seed p_bits q_bits =
  if q_bits + 2 > p_bits then `Error (false, "q-bits must be < p-bits - 1")
  else begin
    let drbg = Drbg.create ~domain:"groupgen" ~seed () in
    let g = Schnorr.generate ~p_bits ~q_bits (Drbg.rand drbg) in
    Format.printf "p = %s@." (Lbq_bignum.Z.to_hex (Schnorr.p g));
    Format.printf "q = %s@." (Lbq_bignum.Z.to_hex (Schnorr.q g));
    Format.printf "g = %s@." (Lbq_bignum.Z.to_hex (Schnorr.g g));
    `Ok ()
  end

let groupgen_cmd =
  let p_bits =
    Arg.(value & opt int 512 & info [ "p-bits" ] ~doc:"Modulus width in bits.")
  in
  let q_bits =
    Arg.(value & opt int 160 & info [ "q-bits" ]
           ~doc:"Subgroup order width in bits.")
  in
  Cmd.v
    (Cmd.info "groupgen"
       ~doc:"Generate fresh Schnorr group parameters (prints hex).")
    Term.(ret (const groupgen $ seed_arg $ p_bits $ q_bits))

(* ------------------------------------------------------------------ *)
(* inspect                                                              *)
(* ------------------------------------------------------------------ *)

let inspect preset =
  let params = params_of_preset ~seed:"inspect" preset in
  Format.printf "%a@.@." Params.pp params;
  Format.printf "derived:@.";
  Format.printf "  private cells:        %d@." (Params.private_cells params);
  Format.printf "  public cells:         %d@." (Params.public_cells params);
  Format.printf "  cell ciphertext:      %d B@." (Params.cell_cipher_bytes params);
  Format.printf "  PIR block capacity:   %d bits@." (Params.block_bits params);
  let plan =
    Lbq_pir.Gr.make_plan ~count:(Params.private_cells params)
      ~block_bits:(Params.block_bits params) ()
  in
  let first = Lbq_pir.Gr.plan_slot plan 0 in
  let last = Lbq_pir.Gr.plan_slot plan (Lbq_pir.Gr.plan_size plan - 1) in
  Format.printf "  PIR plan:             %s^%d ... %s^%d@."
    (Lbq_bignum.Z.to_string first.Lbq_pir.Gr.p) first.Lbq_pir.Gr.c
    (Lbq_bignum.Z.to_string last.Lbq_pir.Gr.p) last.Lbq_pir.Gr.c;
  let e_bits =
    List.init (Lbq_pir.Gr.plan_size plan) (fun i ->
        Lbq_bignum.Z.numbits (Lbq_pir.Gr.plan_slot plan i).Lbq_pir.Gr.pi)
    |> List.fold_left ( + ) 0
  in
  Format.printf "  |e| upper bound:      %d bits@." e_bits;
  `Ok ()

let inspect_cmd =
  Cmd.v
    (Cmd.info "inspect" ~doc:"Show a parameter preset and derived sizes.")
    Term.(ret (const inspect $ preset_arg))

(* ------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "lbq" ~version:"1.0.0"
      ~doc:"Privacy-preserving and content-protecting location based queries \
            (ICDE 2012 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ demo_cmd; walk_cmd; serve_cmd; backends_cmd; gen_city_cmd;
            groupgen_cmd; inspect_cmd ]))
