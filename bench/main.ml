(* Benchmark harness: regenerates every table of the paper's evaluation.

     dune exec bench/main.exe -- <command> [trials]

   Commands:
     table1          Stage-1 op counts & communication vs closed forms
     table2          Stage-2 op counts & communication vs closed forms
     table3          OT component timings at the paper's parameters
     table4          PIR component timings at the paper's parameters
     ablate-grid     OT cost vs grid size: O(n+m) vs the baseline's O(nm)
     ablate-block    PIR cost vs block size
     ablate-modsize  OT cost vs |p| (256 / 512 / 1024)
     comms           Wire bytes of full protocol rounds
     faults          Round latency/bytes/retries vs fault rate p per link
                     profile (chaos-injected loss, corruption, truncation,
                     duplication, reorder, latency spikes), with retries
                     under the default backoff policy; emits
                     BENCH_faults.json
     powm            Limb-engine microbenchmark: fused CIOS Montgomery
                     kernels (mul/sqr/powm) vs the pre-rewrite reference
                     engine — ns/op, speedup and minor words/op per
                     modulus size; emits BENCH_powm.json
     powm-guard      make-check gate: asserts BENCH_powm.quick.json's
                     worst powm speedup >= 1.5x and kernel allocation
                     within budget
     pir             Stage-2 hot path: powm engine ablation (fixed-window
                     Barrett / sliding Barrett / Montgomery + cached
                     recoding), updated Table II closed-form assertion,
                     and queries/sec vs domain count; emits BENCH_pir.json
     ot              Stage-1 hot path: comb/Straus respond vs the generic
                     square-and-multiply reference (byte-identity and
                     closed-form mult count asserted), grid-size sweep,
                     and sieved vs generate-and-test semi-safe prime
                     search; emits BENCH_ot.json
     keypool         Offline/online split: cold inline stage-2 query vs
                     warm pool take (>= 20x asserted), pooled-refill
                     byte-identity vs the sequential reference, prewarm
                     time vs pool size x worker count, and e2e rounds
                     with/without the pool; emits BENCH_keypool.json
     backends        Pluggable PIR arena head-to-head: gr vs qr vs lwe
                     at matched grid sizes — communication, server
                     mults (cost oracle asserted = measured counter)
                     and per-phase timings; emits BENCH_backends.json
     serve           Multi-tenant serving layer under sustained load:
                     a closed-loop tenant fleet on the sharded
                     worker-domain service — q/s and p50/p95/p99 per
                     (clients x domains x queue depth), pooled-vs-
                     sequential byte-identity gate, and a throughput-
                     under-packet-loss sweep; emits BENCH_serve.json
     serve-guard     make-check gate: asserts BENCH_serve.quick.json's
                     best multi-domain q/s >= the best single-domain
                     q/s (sharding + parallelism must not lose)
     update          Streaming updates: incremental CRT fix-up
                     (retained product tree + schedule refresh) vs full
                     rebuild, with byte-identity gates against
                     fresh-encode oracles (gr core and every backend
                     with the update capability) before any timing;
                     >= 10x asserted at the default grids; emits
                     BENCH_update.json
     update-guard    make-check gate: asserts BENCH_update.quick.json's
                     min incremental speedup >= 5x
     quick           Tiny-parameter smoke of every JSON-emitting suite
                     (faults/pir/ot/keypool/backends); same code paths,
                     toy sizes, BENCH_*.quick.json artifacts (make check)
     micro           Bechamel micro-benchmarks of the hot primitives
     all             Everything above (default; reduced trial counts)

   Absolute numbers differ from the paper's 2008-era C++/NTL prototype;
   the claims under reproduction are the *shapes*: which component
   dominates, who wins, and how costs scale.  EXPERIMENTS.md records the
   paper-vs-measured comparison. *)

open Lbq_bignum
open Lbq_group
open Lbq_geo
open Lbq_core
module Ot = Lbq_ot.Ot
module Gr = Lbq_pir.Gr
module Qr_pir = Lbq_qrpir.Qr_pir
module Ghinita = Lbq_baseline.Ghinita
module Counters = Lbq_metrics.Counters
module Drbg = Lbq_crypto.Drbg
module Primegen = Lbq_numth.Primegen
module Keypool = Lbq_cache.Keypool
module J = Json_out

(* ------------------------------------------------------------------ *)
(* Small statistics / timing helpers                                    *)
(* ------------------------------------------------------------------ *)

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  v, Unix.gettimeofday () -. t0

let mean xs =
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let stddev xs =
  let m = mean xs in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs
    /. float_of_int (max 1 (Array.length xs - 1))
  in
  Float.sqrt var

let row4 name avg sd paper =
  Format.printf "  %-12s %12.5f s  (+/- %8.5f)   paper: %10.5f s@." name avg sd
    paper

(* ------------------------------------------------------------------ *)
(* Table I — stage-1 computation and communication                      *)
(* ------------------------------------------------------------------ *)

(* Closed forms (Table I), in exponentiations and bits:
     ours:     user 6;           server 3n + 3m;  comm 4L + 2(m+n)L
     Ghinita:  user 4 + 4nm;     server 4nm;      comm 4L + 4nm * 2L  *)
let table1 _trials =
  Format.printf "=== Table I: stage-1 performance (analytic vs measured) ===@.@.";
  let group = Schnorr.test_group () in
  let drbg = Drbg.create ~seed:"bench-t1" () in
  let rand = Drbg.rand drbg in
  Format.printf
    "  %-7s | %-28s | %-28s | %-21s@." "n=m"
    "ours: user/server exps" "ghinita: user/server exps" "comm bytes (ours/gh.)";
  Format.printf "  %s@." (String.make 96 '-');
  List.iter
    (fun n ->
      let m = n in
      (* Ours: one OT round with counters. *)
      let ours = Counters.create () in
      let payloads =
        Array.init n (fun _ ->
            Array.init m (fun _ -> Drbg.bytes drbg Server.payload_len))
      in
      let server = Ot.Server.init ~group ~rand ~metrics:ours payloads in
      Counters.reset ours;
      let st, q = Ot.Client.query ~group ~rand ~metrics:ours ~i:(n / 2) ~j:(m / 2) () in
      let resp = Ot.Server.respond server q in
      let _ = Ot.Client.decode st ~masked:(Ot.Server.masked_table server) resp in
      (* Baseline: one stage-1 exchange with counters. *)
      let area =
        Coord.Rect.make ~min:(Coord.make ~x:0. ~y:0.)
          ~max:(Coord.make ~x:1000. ~y:1000.)
      in
      let theirs = Counters.create () in
      let bserver =
        Ghinita.create ~metrics:theirs ~area ~grid_rows:n ~grid_cols:m
          ~private_rows:2 ~private_cols:2 ~rmax:1
          [ Poi.make ~id:0 ~position:(Coord.make ~x:1. ~y:1.) ~category:"x"
              ~name:"x" ]
      in
      let bclient =
        Ghinita.Client.create ~metrics:theirs ~paillier_bits:256 ~qr_bits:128
          bserver
      in
      let q1 = Ghinita.Client.stage1_query bclient (Coord.make ~x:999. ~y:999.) in
      let r1 = Ghinita.stage1_respond bserver q1 in
      let _ = Ghinita.Client.stage1_decode bclient r1 in
      let ours = Counters.snapshot ours in
      let theirs = Counters.snapshot theirs in
      Format.printf
        "  %-7d | %2d/%3d (analytic 6/%3d)      | %3d/%4d (analytic %4d/%4d) | %6d / %d@."
        n ours.Counters.user_exp ours.Counters.server_exp
        ((3 * n) + (3 * m))
        theirs.Counters.user_exp theirs.Counters.server_exp
        (4 + (4 * n * m)) (4 * n * m)
        (ours.Counters.user_bytes + ours.Counters.server_bytes)
        (theirs.Counters.user_bytes + theirs.Counters.server_bytes))
    [ 5; 10; 15; 20; 25 ];
  let l = 1024 in
  Format.printf
    "@.  Closed-form communication at the paper's L = %d bits, n = m = 25:@." l;
  Format.printf "    ours:    4L + 2(m+n)L = %d bits = %d KB@."
    ((4 * l) + (2 * 50 * l))
    (((4 * l) + (2 * 50 * l)) / 8192);
  Format.printf "    ghinita: 4L + 4nm*2L  = %d bits = %d KB@."
    ((4 * l) + (4 * 625 * 2 * l))
    (((4 * l) + (4 * 625 * 2 * l)) / 8192);
  Format.printf
    "@.  Note: baseline user exps are measured with early exit; the analytic@.";
  Format.printf
    "  4 + 4nm is the worst case (user's cell scanned last).@.@."

(* ------------------------------------------------------------------ *)
(* Table II — stage-2 computation and communication                     *)
(* ------------------------------------------------------------------ *)

let table2 _trials =
  Format.printf "=== Table II: stage-2 performance (analytic vs measured) ===@.@.";
  let drbg = Drbg.create ~seed:"bench-t2" () in
  let rand = Drbg.rand drbg in
  (* Ours at the paper's scale: 15x15 = 225 records, >= 1024-bit blocks. *)
  let count = 225 and block_bits = 1024 and q_bits = 128 in
  let plan = Gr.make_plan ~count ~block_bits () in
  let records =
    Array.init count (fun i ->
        Z.erem (Z.random_bits ~bits:block_bits rand) (Gr.plan_slot plan i).Gr.pi)
  in
  let ours = Counters.create () in
  let server = Gr.Server.create ~metrics:ours plan records in
  let index = 112 in
  let st, (n, g) = Gr.Client.query ~metrics:ours ~plan ~index ~q_bits rand in
  let ge = Gr.Server.respond server ~n ~g in
  let v = Gr.Client.decode st ge in
  assert (Z.equal v records.(index));
  let ours = Counters.snapshot ours in
  let e_bits = Gr.Server.e_bits server in
  let n_bits = Z.numbits n in
  Format.printf "  Ours (Gentry-Ramzan), %d records, %d-bit blocks:@." count
    block_bits;
  Format.printf "    |e| = %d bits, |N| = %d bits@." e_bits n_bits;
  Format.printf
    "    server mults: measured %d, analytic |e| = %d (windowed exp overhead %.2fx)@."
    ours.Counters.server_mult e_bits
    (float_of_int ours.Counters.server_mult /. float_of_int e_bits);
  let slot = Gr.plan_slot plan index in
  Format.printf
    "    user mults:   measured %d, analytic 2|N| + O(c(lg pi + sqrt p)) with c=%d, p=%s@."
    ours.Counters.user_mult slot.Gr.c (Z.to_string slot.Gr.p);
  Format.printf "    comm: user %d B, server %d B (2 group elements total: 2L)@."
    ours.Counters.user_bytes ours.Counters.server_bytes;
  (* Baseline: QR-PIR over a 15x15 matrix of 1024-bit (128 B) blocks. *)
  let theirs = Counters.create () in
  let a = 15 and b = 15 and block_len = block_bits / 8 in
  let blocks =
    Array.init a (fun _ -> Array.init b (fun _ -> Drbg.bytes drbg block_len))
  in
  let qr_sk = Qr_pir.keygen ~bits:1024 rand in
  let bserver = Qr_pir.Server.create ~metrics:theirs blocks in
  let stq, qv =
    Qr_pir.Client.query ~metrics:theirs ~sk:qr_sk ~cols:b ~target_col:7 rand
  in
  let planes =
    Qr_pir.Server.respond bserver
      ~n:(Qr_pir.modulus (Qr_pir.public_of_private qr_sk)) qv
  in
  let got = Qr_pir.Client.decode_block stq planes ~target_row:7 in
  assert (String.equal got blocks.(7).(7));
  let theirs = Counters.snapshot theirs in
  let s = 8 * block_len in
  Format.printf "@.  Ghinita (QR-PIR), %dx%d blocks of %d bits:@." a b
    (8 * block_len);
  Format.printf "    server mults: measured %d, analytic a*b*s = %d (squarings add %.2fx)@."
    theirs.Counters.server_mult (a * b * s)
    (float_of_int theirs.Counters.server_mult /. float_of_int (a * b * s));
  Format.printf "    comm: user %d B (b elements), server %d B (a*s elements)@."
    theirs.Counters.user_bytes theirs.Counters.server_bytes;
  Format.printf
    "@.  Shape check: ours ships 2 group elements total; the baseline ships %d.@."
    (b + (a * s));
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* Table III — OT component timings                                     *)
(* ------------------------------------------------------------------ *)

let table3 trials =
  Format.printf
    "=== Table III: oblivious transfer timings (|p|=1024, |q|=160, 25x25, %d trials) ===@.@."
    trials;
  let group = Schnorr.paper_group () in
  let drbg = Drbg.create ~seed:"bench-t3" () in
  let rand = Drbg.rand drbg in
  let n = 25 and m = 25 in
  let payloads () =
    Array.init n (fun _ ->
        Array.init m (fun _ -> Drbg.bytes drbg Server.payload_len))
  in
  let t_init = Array.make trials 0. in
  let t_query = Array.make trials 0. in
  let t_resp = Array.make trials 0. in
  let t_dec = Array.make trials 0. in
  for t = 0 to trials - 1 do
    let server, d = time (fun () -> Ot.Server.init ~group ~rand (payloads ())) in
    t_init.(t) <- d;
    let i = Drbg.int drbg n and j = Drbg.int drbg m in
    let (st, q), d = time (fun () -> Ot.Client.query ~group ~rand ~i ~j ()) in
    t_query.(t) <- d;
    let resp, d = time (fun () -> Ot.Server.respond server q) in
    t_resp.(t) <- d;
    let masked = Ot.Server.masked_table server in
    let _, d = time (fun () -> Ot.Client.decode st ~masked resp) in
    t_dec.(t) <- d
  done;
  Format.printf "  %-12s %-30s %s@." "Component" "Measured (this repo)" "";
  row4 "Init" (mean t_init) (stddev t_init) 0.28829;
  row4 "Query" (mean t_query) (stddev t_query) 0.00484;
  row4 "Response" (mean t_resp) (stddev t_resp) 0.11495;
  row4 "Decode" (mean t_dec) (stddev t_dec) 0.00031;
  Format.printf
    "@.  Shape: server-side work (Init, Response) is hundreds of ms; user-side@.";
  Format.printf
    "  work (Query, Decode) is milliseconds - the paper's headline point that@.";
  Format.printf
    "  the user stays cheap.  (The paper measured Init > Response; our Response@.";
  Format.printf
    "  is the larger of the two - see EXPERIMENTS.md for the discussion.)@.@."

(* ------------------------------------------------------------------ *)
(* Table IV — PIR component timings                                     *)
(* ------------------------------------------------------------------ *)

let table4 trials =
  Format.printf
    "=== Table IV: PIR timings (15x15 db, first 225 primes from 3, 1024-bit blocks, |q0|=|q1|=128, %d trials) ===@.@."
    trials;
  let drbg = Drbg.create ~seed:"bench-t4" () in
  let rand = Drbg.rand drbg in
  let count = 225 and block_bits = 1024 and q_bits = 128 in
  let plan = Gr.make_plan ~count ~block_bits () in
  let records =
    Array.init count (fun i ->
        Z.erem (Z.random_bits ~bits:block_bits rand) (Gr.plan_slot plan i).Gr.pi)
  in
  let server = Gr.Server.create plan records in
  Format.printf "  database encoded: |e| = %d bits@.@." (Gr.Server.e_bits server);
  let t_query = Array.make trials 0. in
  let t_resp = Array.make trials 0. in
  let t_dec = Array.make trials 0. in
  for t = 0 to trials - 1 do
    let index = Drbg.int drbg count in
    let (st, (n, g)), d =
      time (fun () -> Gr.Client.query ~plan ~index ~q_bits rand)
    in
    t_query.(t) <- d;
    let ge, d = time (fun () -> Gr.Server.respond server ~n ~g) in
    t_resp.(t) <- d;
    let v, d = time (fun () -> Gr.Client.decode st ge) in
    t_dec.(t) <- d;
    assert (Z.equal v records.(index))
  done;
  Format.printf "  %-12s %-30s %s@." "Component" "Measured (this repo)" "";
  row4 "Query" (mean t_query) (stddev t_query) 9.64984;
  row4 "Response" (mean t_resp) (stddev t_resp) 4.57127;
  row4 "Decode" (mean t_dec) (stddev t_dec) 0.25451;
  Format.printf
    "@.  Shape: Query and Response are seconds-scale, Decode is the smallest -@.";
  Format.printf
    "  as in the paper.  Our Query undercuts the paper's 9.6 s because the@.";
  Format.printf
    "  semi-safe-prime search trial-divides by small primes before each@.";
  Format.printf
    "  Miller-Rabin round; Response and Decode land within ~15%% of the paper@.";
  Format.printf "  despite the different machine (see EXPERIMENTS.md).@.@."

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let ablate_grid trials =
  Format.printf
    "=== Ablation: stage-1 cost vs grid size (ours O(n+m) vs baseline O(nm)) ===@.@.";
  let group = Schnorr.mid_group () in
  let drbg = Drbg.create ~seed:"bench-grid" () in
  let rand = Drbg.rand drbg in
  Format.printf "  %-7s | %-25s | %-25s@." "n=m" "ours response (s)"
    "baseline respond (s)";
  Format.printf "  %s@." (String.make 65 '-');
  List.iter
    (fun n ->
      let m = n in
      let payloads =
        Array.init n (fun _ ->
            Array.init m (fun _ -> Drbg.bytes drbg Server.payload_len))
      in
      let server = Ot.Server.init ~group ~rand payloads in
      let ours =
        Array.init trials (fun _ ->
            let _, q = Ot.Client.query ~group ~rand ~i:0 ~j:0 () in
            snd (time (fun () -> ignore (Ot.Server.respond server q))))
      in
      let area =
        Coord.Rect.make ~min:(Coord.make ~x:0. ~y:0.)
          ~max:(Coord.make ~x:1000. ~y:1000.)
      in
      let bserver =
        Ghinita.create ~area ~grid_rows:n ~grid_cols:m ~private_rows:2
          ~private_cols:2 ~rmax:1
          [ Poi.make ~id:0 ~position:(Coord.make ~x:1. ~y:1.) ~category:"x"
              ~name:"x" ]
      in
      let bclient = Ghinita.Client.create ~paillier_bits:512 ~qr_bits:128 bserver in
      let theirs =
        Array.init trials (fun _ ->
            let q1 =
              Ghinita.Client.stage1_query bclient (Coord.make ~x:500. ~y:500.)
            in
            snd (time (fun () -> ignore (Ghinita.stage1_respond bserver q1))))
      in
      Format.printf "  %-7d | %10.4f (+/- %7.4f) | %10.4f (+/- %7.4f)@." n
        (mean ours) (stddev ours) (mean theirs) (stddev theirs))
    [ 5; 10; 15; 20; 25; 32 ];
  Format.printf
    "@.  Ours grows linearly in n+m; the baseline quadratically in n*m.@.@."

let ablate_block trials =
  Format.printf "=== Ablation: PIR component times vs block size ===@.@.";
  let drbg = Drbg.create ~seed:"bench-block" () in
  let rand = Drbg.rand drbg in
  Format.printf "  %-10s | %-12s | %-12s | %-12s | %s@." "block bits"
    "query (s)" "respond (s)" "decode (s)" "|e| bits";
  Format.printf "  %s@." (String.make 70 '-');
  List.iter
    (fun block_bits ->
      let count = 64 in
      let plan = Gr.make_plan ~count ~block_bits () in
      let records =
        Array.init count (fun i ->
            Z.erem (Z.random_bits ~bits:block_bits rand)
              (Gr.plan_slot plan i).Gr.pi)
      in
      let server = Gr.Server.create plan records in
      let tq = Array.make trials 0. and tr = Array.make trials 0. in
      let td = Array.make trials 0. in
      for t = 0 to trials - 1 do
        let index = Drbg.int drbg count in
        let (st, (n, g)), d =
          time (fun () -> Gr.Client.query ~plan ~index ~q_bits:64 rand)
        in
        tq.(t) <- d;
        let ge, d = time (fun () -> Gr.Server.respond server ~n ~g) in
        tr.(t) <- d;
        let v, d = time (fun () -> Gr.Client.decode st ge) in
        td.(t) <- d;
        assert (Z.equal v records.(index))
      done;
      Format.printf "  %-10d | %12.4f | %12.4f | %12.4f | %d@." block_bits
        (mean tq) (mean tr) (mean td) (Gr.Server.e_bits server))
    [ 256; 512; 1024; 2048 ];
  Format.printf
    "@.  Query grows with the primality-search width (~ block bits);@.";
  Format.printf "  respond grows with |e| ~ count * block bits.@.@."

let ablate_modsize trials =
  Format.printf "=== Ablation: OT timings vs group modulus size ===@.@.";
  let drbg = Drbg.create ~seed:"bench-mod" () in
  let rand = Drbg.rand drbg in
  Format.printf "  %-8s | %-12s | %-12s | %-12s@." "|p|" "query (s)"
    "response (s)" "decode (s)";
  Format.printf "  %s@." (String.make 55 '-');
  List.iter
    (fun (label, group) ->
      let n = 25 and m = 25 in
      let payloads =
        Array.init n (fun _ ->
            Array.init m (fun _ -> Drbg.bytes drbg Server.payload_len))
      in
      let server = Ot.Server.init ~group ~rand payloads in
      let masked = Ot.Server.masked_table server in
      let tq = Array.make trials 0. and tr = Array.make trials 0. in
      let td = Array.make trials 0. in
      for t = 0 to trials - 1 do
        let (st, q), d = time (fun () -> Ot.Client.query ~group ~rand ~i:3 ~j:4 ()) in
        tq.(t) <- d;
        let resp, d = time (fun () -> Ot.Server.respond server q) in
        tr.(t) <- d;
        let _, d = time (fun () -> Ot.Client.decode st ~masked resp) in
        td.(t) <- d
      done;
      Format.printf "  %-8s | %12.5f | %12.5f | %12.5f@." label (mean tq)
        (mean tr) (mean td))
    [ "256", Schnorr.test_group (); "512", Schnorr.mid_group ();
      "1024", Schnorr.paper_group () ];
  Format.printf "@.  Cost scales ~cubically with |p| (schoolbook modmult).@.@."

let ablate_mulengine trials =
  Format.printf
    "=== Ablation: Barrett vs Montgomery exponentiation (160-bit exponents) ===@.@.";
  let drbg = Drbg.create ~seed:"bench-engine" () in
  let rand = Drbg.rand drbg in
  Format.printf "  %-8s | %-14s | %-14s | %s@." "|m|" "barrett (ms)"
    "montgomery (ms)" "speedup";
  Format.printf "  %s@." (String.make 55 '-');
  List.iter
    (fun bits ->
      let m = Z.random_bits ~bits rand in
      let m = Z.add m (Z.shift_left Z.one (bits - 1)) in
      let m = if Z.is_even m then Z.succ m else m in
      let bar = Barrett.create m in
      let mont = Montgomery.create m in
      let a = Z.erem (Z.random_bits ~bits rand) m in
      let e = Z.random_bits ~bits:160 rand in
      assert (Z.equal (Barrett.powm bar a e) (Montgomery.powm mont a e));
      let reps = max 20 (trials * 10) in
      let tb =
        snd (time (fun () -> for _ = 1 to reps do ignore (Barrett.powm bar a e) done))
        /. float_of_int reps
      in
      let tm =
        snd (time (fun () ->
            for _ = 1 to reps do ignore (Montgomery.powm mont a e) done))
        /. float_of_int reps
      in
      Format.printf "  %-8d | %14.4f | %14.4f | %.2fx@." bits (tb *. 1e3)
        (tm *. 1e3) (tb /. tm))
    [ 512; 1024; 2048 ];
  Format.printf
    "@.  Montgomery backs the primality tests (uncounted work); Barrett backs@.";
  Format.printf
    "  the counted protocol operations so Tables I-II measure real op counts.@.@."

let ablate_reuse trials =
  Format.printf
    "=== Ablation: per-cell PIR instance reuse across rounds (S VI) ===@.@.";
  let area =
    Coord.Rect.make ~min:(Coord.make ~x:0. ~y:0.)
      ~max:(Coord.make ~x:3000. ~y:3000.)
  in
  let pois =
    List.init 9 (fun idx ->
        let row = idx / 3 and col = idx mod 3 in
        Poi.make ~id:idx
          ~position:(Coord.make
                       ~x:((float_of_int col *. 1000.) +. 500.)
                       ~y:((float_of_int row *. 1000.) +. 500.))
          ~category:"c" ~name:"n")
  in
  let params = Params.test ~seed:"bench-reuse" () in
  let server = Server.create params ~area pois in
  let position = Coord.make ~x:1500. ~y:1500. in
  let run reuse =
    let client = Client.create (Server.public_info server) in
    Array.init trials (fun _ ->
        snd (time (fun () ->
            ignore (Protocol.run_round ~reuse client server ~position))))
  in
  let fresh = run false in
  let reused = run true in
  Format.printf "  fresh instance per round: %.3f s/round (+/- %.3f)@."
    (mean fresh) (stddev fresh);
  Format.printf "  cached instance (reuse):  %.3f s/round (first round pays %.3f s)@."
    (mean (Array.sub reused 1 (Array.length reused - 1)))
    reused.(0);
  Format.printf
    "@.  Reuse removes the primality search from every repeat round, at the@.";
  Format.printf "  privacy cost of letting the server link same-cell rounds.@.@."

let ablate_network trials =
  Format.printf
    "=== Ablation: end-to-end round latency on mobile link profiles ===@.@.";
  let open Lbq_net in
  let params = Params.test ~seed:"bench-net" () in
  let area =
    Coord.Rect.make ~min:(Coord.make ~x:0. ~y:0.)
      ~max:(Coord.make ~x:3000. ~y:3000.)
  in
  let pois =
    List.init 9 (fun idx ->
        let row = idx / 3 and col = idx mod 3 in
        Poi.make ~id:idx
          ~position:(Coord.make
                       ~x:((float_of_int col *. 1000.) +. 500.)
                       ~y:((float_of_int row *. 1000.) +. 500.))
          ~category:"c" ~name:"n")
  in
  let server = Server.create params ~area pois in
  let info = Server.public_info server in
  Format.printf "  %-10s | %-10s | %-10s | %-10s | %s@." "link" "air (s)"
    "cpu (s)" "total (s)" "air share";
  Format.printf "  %s@." (String.make 60 '-');
  List.iter
    (fun link ->
      let air = Array.make trials 0. and cpu = Array.make trials 0. in
      for t = 0 to trials - 1 do
        let relay = Relay.create ~link () in
        let client = Client.create ~seed:(string_of_int t) info in
        let _, stats =
          Session.run_round relay client server
            ~position:(Coord.make ~x:1500. ~y:1500.)
        in
        air.(t) <- stats.Session.network_s;
        cpu.(t) <- stats.Session.user_cpu_s +. stats.Session.server_cpu_s
      done;
      let a = mean air and c = mean cpu in
      Format.printf "  %-10s | %10.3f | %10.3f | %10.3f | %4.0f%%@."
        (Link.name link) a c (a +. c) (100. *. a /. (a +. c)))
    Link.profiles;
  Format.printf
    "@.  On GPRS the air time rivals the crypto; from 3G up, computation@.";
  Format.printf "  dominates - the constant-rate PIR keeps traffic tiny.@.@."

let throughput trials =
  Format.printf
    "=== Throughput: parallel PIR responses across domains (S VI) ===@.@.";
  let drbg = Drbg.create ~seed:"bench-throughput" () in
  let rand = Drbg.rand drbg in
  let count = 64 and block_bits = 512 and q_bits = 64 in
  let plan = Gr.make_plan ~count ~block_bits () in
  let records =
    Array.init count (fun i ->
        Z.erem (Z.random_bits ~bits:block_bits rand) (Gr.plan_slot plan i).Gr.pi)
  in
  let server = Gr.Server.create plan records in
  (* Pre-build the client queries so only the server side is timed. *)
  let nqueries = max 4 trials in
  let queries =
    Array.init nqueries (fun i ->
        let index = i mod count in
        let _st, (n, g) = Gr.Client.query ~plan ~index ~q_bits rand in
        n, g)
  in
  let answer (n, g) = ignore (Gr.Server.respond server ~n ~g) in
  let _, seq = time (fun () -> Array.iter answer queries) in
  let ndomains = min 4 (max 1 (Domain.recommended_domain_count () - 1)) in
  let _, par =
    time (fun () ->
        let chunk = (nqueries + ndomains - 1) / ndomains in
        let domains =
          List.init ndomains (fun d ->
              Domain.spawn (fun () ->
                  for i = d * chunk to min ((d + 1) * chunk) nqueries - 1 do
                    answer queries.(i)
                  done))
        in
        List.iter Domain.join domains)
  in
  Format.printf "  %d queries, %d-bit blocks, |e| = %d bits@." nqueries
    block_bits (Gr.Server.e_bits server);
  Format.printf "  sequential: %.2f s  (%.2f q/s)@." seq
    (float_of_int nqueries /. seq);
  Format.printf "  %d domain(s): %.2f s  (%.2f q/s, %.2fx)@." ndomains par
    (float_of_int nqueries /. par) (seq /. par);
  Format.printf
    "@.  \"If there are many users, the server can use parallel processing to@.";
  Format.printf
    "  increase the throughput\" (S VI).  Responses are independent and run@.";
  Format.printf
    "  on OCaml 5 domains; the speedup tracks the machine's core count@.";
  Format.printf "  (this machine reports %d).@.@."
    (Domain.recommended_domain_count ())

let comms _trials =
  Format.printf "=== Communication: full-round wire bytes (measured) ===@.@.";
  let area =
    Coord.Rect.make ~min:(Coord.make ~x:0. ~y:0.)
      ~max:(Coord.make ~x:3000. ~y:3000.)
  in
  let pois =
    List.init 9 (fun idx ->
        let row = idx / 3 and col = idx mod 3 in
        Poi.make ~id:idx
          ~position:(Coord.make
                       ~x:((float_of_int col *. 1000.) +. 500.)
                       ~y:((float_of_int row *. 1000.) +. 500.))
          ~category:"c" ~name:"n")
  in
  Format.printf "  %-7s | %-12s | %-12s | %s@." "n=m" "up (B)" "down (B)"
    "of which OT response";
  Format.printf "  %s@." (String.make 60 '-');
  List.iter
    (fun n ->
      let params =
        Params.make ~group:(Schnorr.test_group ()) ~q_bits:24 ~public_rows:n
          ~public_cols:n ~private_rows:3 ~private_cols:3 ~rmax:1
          ~seed:"bench-comm" ()
      in
      let server = Server.create params ~area pois in
      let client = Client.create (Server.public_info server) in
      let result =
        Protocol.run_round client server ~position:(Coord.make ~x:1500. ~y:1500.)
      in
      let up =
        Protocol.transcript_bytes ~direction:Protocol.User_to_server
          result.Protocol.transcript
      in
      let down =
        Protocol.transcript_bytes ~direction:Protocol.Server_to_user
          result.Protocol.transcript
      in
      let ot_down =
        List.nth result.Protocol.transcript 1 |> fun mes -> mes.Protocol.bytes
      in
      Format.printf "  %-7d | %-12d | %-12d | %d@." n up down ot_down)
    [ 5; 10; 15; 20; 25 ];
  Format.printf
    "@.  Down-traffic grows linearly in n+m (OT response); PIR stays 1 element.@.";
  Format.printf
    "  At L = 1024 bits the baseline's stage-1 answer alone would be 4n^2 * 256 B.@.@."

(* ------------------------------------------------------------------ *)
(* Fault sweep: resilience vs fault rate per link profile               *)
(* ------------------------------------------------------------------ *)

(* Rounds through a chaos-carrying relay under the default retry policy:
   per (link profile x fault rate p) report mean round latency, wire
   bytes (retries included) and retries per round.  The same data is
   emitted machine-readably as BENCH_faults.json. *)
let faults ?(out = "BENCH_faults.json") ?(rates = [ 0.; 0.01; 0.05; 0.1 ])
    trials =
  let open Lbq_net in
  Format.printf
    "=== Fault sweep: round latency / bytes / retries vs fault rate (%d trials) ===@.@."
    trials;
  let params = Params.test ~seed:"bench-faults" () in
  let area =
    Coord.Rect.make ~min:(Coord.make ~x:0. ~y:0.)
      ~max:(Coord.make ~x:3000. ~y:3000.)
  in
  let pois =
    List.init 9 (fun idx ->
        let row = idx / 3 and col = idx mod 3 in
        Poi.make ~id:idx
          ~position:(Coord.make
                       ~x:((float_of_int col *. 1000.) +. 500.)
                       ~y:((float_of_int row *. 1000.) +. 500.))
          ~category:"c" ~name:"n")
  in
  let server = Server.create params ~area pois in
  let info = Server.public_info server in
  let policy = Retry.default in
  let rows = ref [] in
  Format.printf "  %-10s | %-6s | %-12s | %-10s | %-9s | %s@." "link" "p"
    "latency (s)" "bytes/rnd" "retries" "completed";
  Format.printf "  %s@." (String.make 68 '-');
  List.iter
    (fun link ->
      List.iter
        (fun p ->
          let gc0 = Counters.gc_words () in
          let lat = ref 0. and bytes = ref 0 and retries = ref 0 in
          let completed = ref 0 in
          for t = 0 to trials - 1 do
            let seed = Printf.sprintf "faults-%s-%f-%d" (Link.name link) p t in
            let chaos =
              Chaos.create ~config:(Chaos.mixed ~p ()) ~seed ()
            in
            let relay = Relay.create ~chaos ~link () in
            let client = Client.create ~seed info in
            match
              Session.run_round ~retry:policy ~jitter_seed:seed relay client
                server ~position:(Coord.make ~x:1500. ~y:1500.)
            with
            | _, stats ->
              incr completed;
              lat := !lat
                     +. stats.Session.network_s +. stats.Session.user_cpu_s
                     +. stats.Session.server_cpu_s;
              bytes := !bytes + stats.Session.bytes_up
                       + stats.Session.bytes_down;
              retries := !retries + stats.Session.retries
            | exception Session.Network_error _ ->
              (* Budget exhausted: counted, not fatal. *)
              ()
          done;
          let n = max 1 !completed in
          let mlat = !lat /. float_of_int n in
          let mbytes = float_of_int !bytes /. float_of_int n in
          let mretries = float_of_int !retries /. float_of_int n in
          Format.printf "  %-10s | %-6.2f | %12.3f | %10.0f | %9.2f | %d/%d@."
            (Link.name link) p mlat mbytes mretries !completed trials;
          rows :=
            J.Obj
              ([ "link", J.Str (Link.name link); "p", J.Float p;
                 "trials", J.Int trials; "completed", J.Int !completed;
                 "latency_s", J.Float mlat; "bytes", J.Float mbytes;
                 "retries", J.Float mretries ]
               @ J.gc_fields (Counters.gc_delta ~since:gc0))
            :: !rows)
        rates)
    Link.profiles;
  J.write ~path:out (J.List (List.rev !rows));
  Format.printf
    "@.  Wrote %s.  Latency grows with p through retries@." out;
  Format.printf
    "  (timeout + capped exponential backoff); bytes grow with the extra@.";
  Format.printf
    "  transmissions; results stay byte-identical to the fault-free run.@.@."

(* ------------------------------------------------------------------ *)
(* PIR hot path: engine ablation, closed form, domain scaling           *)
(* ------------------------------------------------------------------ *)

(* Stage-2 server hot path at the paper's parameters (225 records,
   1024-bit blocks, 128-bit q): wall time of one respond under the
   pre-PR engine (Barrett, fixed 4-bit window) vs the sliding-window
   Barrett vs the production path (Montgomery + cached recoding); the
   updated Table II closed form asserted against the measured multiply
   counter; and queries/sec vs domain count on the worker pool.  Emits
   BENCH_pir.json. *)
let pir ?(out = "BENCH_pir.json") ?(count = 225) ?(block_bits = 1024)
    ?(q_bits = 128) trials =
  Format.printf
    "=== PIR stage-2 hot path: engine ablation & domain scaling ===@.@.";
  let gc0 = Counters.gc_words () in
  let drbg = Drbg.create ~seed:"bench-pir" () in
  let rand = Drbg.rand drbg in
  let plan = Gr.make_plan ~count ~block_bits () in
  let records =
    Array.init count (fun i ->
        Z.erem (Z.random_bits ~bits:block_bits rand) (Gr.plan_slot plan i).Gr.pi)
  in
  let metrics = Counters.create () in
  let server = Gr.Server.create ~metrics plan records in
  let e = Gr.Server.e server in
  let ebits = Gr.Server.e_bits server in
  let index = count / 2 in
  let st, (n, g) = Gr.Client.query ~plan ~index ~q_bits rand in
  (* Correctness anchor before timing anything. *)
  let ge = Gr.Server.respond server ~n ~g in
  assert (Z.equal (Gr.Client.decode st ge) records.(index));
  (* --- Ablation: wall time of one full respond (context + g^e). --- *)
  let reps = max 1 (min trials 3) in
  let sample f =
    let acc = ref 0. in
    let out = ref Z.zero in
    for _ = 1 to reps do
      let v, dt = time f in
      out := v;
      acc := !acc +. dt
    done;
    (!out, !acc /. float_of_int reps)
  in
  let r_old, t_old =
    sample (fun () ->
        let ctx = Barrett.create n in
        Barrett.powm_fixed4 ctx g e)
  in
  let sched = Gr.Server.schedule server in
  let r_slide, t_slide =
    sample (fun () ->
        let ctx = Barrett.create n in
        Barrett.powm_sched ctx g sched)
  in
  let r_mont, t_mont = sample (fun () -> Gr.Server.respond server ~n ~g) in
  assert (Z.equal r_old r_slide);
  assert (Z.equal r_old r_mont);
  let speedup = t_old /. t_mont in
  Format.printf
    "  one respond at paper params: |e| = %d bits, |N| = %d bits (mean of %d)@."
    ebits (Z.numbits n) reps;
  Format.printf "    barrett, fixed 4-bit window (pre-PR): %8.3f s@." t_old;
  Format.printf "    barrett, sliding window:              %8.3f s  (%.2fx)@."
    t_slide (t_old /. t_slide);
  Format.printf "    montgomery, sliding + cached recode:  %8.3f s  (%.2fx)@."
    t_mont speedup;
  (* --- Updated Table II closed form, asserted exactly. --- *)
  Counters.reset metrics;
  ignore (Gr.Server.respond server ~n ~g);
  let measured = (Counters.snapshot metrics).Counters.server_mult in
  let predicted = Gr.Server.predicted_mults server in
  let w = sched.Wexp.width in
  (* |e| squarings + ~|e|/(w+1) window mults + 2^(w-1) table + slack. *)
  let bound = ebits + (ebits / (w + 1)) + (1 lsl (w - 1)) + 16 in
  Format.printf
    "@.  closed form (window width %d): measured %d mults = predicted %d; \
     bound |e| + |e|/(w+1) + 2^(w-1) + 16 = %d@."
    w measured predicted bound;
  assert (measured = predicted);
  assert (measured <= bound);
  assert (measured >= ebits - w);
  (* --- Queries/sec vs domain count on the worker pool. --- *)
  let nq = max 4 (min trials 8) in
  (* One pre-built query answered nq times: server cost is identical per
     query, and the client's prime search stays off the clock. *)
  let queries = Array.make nq (n, g) in
  let answer (n, g) = ignore (Gr.Server.respond server ~n ~g) in
  let _, seq = time (fun () -> Array.iter answer queries) in
  let seq_qps = float_of_int nq /. seq in
  Format.printf "@.  %d queries, sequential: %.2f s  (%.2f q/s)@." nq seq
    seq_qps;
  let scaling =
    List.map
      (fun d ->
        Lbq_pool.Pool.with_pool ~domains:d (fun pool ->
            let _, dt =
              time (fun () -> ignore (Lbq_pool.Pool.map pool answer queries))
            in
            let qps = float_of_int nq /. dt in
            Format.printf "  %d domain(s): %.2f s  (%.2f q/s, %.2fx)@." d dt qps
              (qps /. seq_qps);
            (d, qps)))
      [ 1; 2; 4 ]
  in
  let cores = Domain.recommended_domain_count () in
  Format.printf
    "@.  Scaling tracks the machine's core count (this machine reports %d);@."
    cores;
  Format.printf
    "  on one core the pool only adds scheduling overhead, by design.@.";
  J.write ~path:out
    (J.Obj
       ([ ( "params",
            J.Obj
              [ "records", J.Int count; "block_bits", J.Int block_bits;
                "q_bits", J.Int q_bits; "e_bits", J.Int ebits;
                "n_bits", J.Int (Z.numbits n) ] );
          ( "ablation",
            J.Obj
              [ "barrett_fixed4_s", J.Float t_old;
                "barrett_sliding_s", J.Float t_slide;
                "montgomery_sched_s", J.Float t_mont;
                "speedup_vs_fixed4", J.Float speedup ] );
          ( "closed_form",
            J.Obj
              [ "width", J.Int w; "measured_mults", J.Int measured;
                "predicted_mults", J.Int predicted; "bound", J.Int bound ] );
          ( "scaling",
            J.Obj
              ([ "queries", J.Int nq; "sequential_qps", J.Float seq_qps ]
               @ List.map
                   (fun (d, qps) ->
                     (Printf.sprintf "domains_%d_qps" d, J.Float qps))
                   scaling) );
          "cores", J.Int cores ]
        @ J.gc_fields (Counters.gc_delta ~since:gc0)));
  Format.printf "@.  Wrote %s.@.@." out;
  if speedup < 1.5 then
    Format.printf
      "  WARNING: respond speedup %.2fx below the 1.5x acceptance bar.@.@."
      speedup

(* ------------------------------------------------------------------ *)
(* OT hot path: comb/Straus engine ablation, sieved prime search        *)
(* ------------------------------------------------------------------ *)

(* Stage-1 server hot path at the paper's parameters (25x25 grid,
   |p| = 1024, |q| = 160): wall time of one respond under the pre-PR
   generic square-and-multiply path vs the comb/Straus engine, with the
   closed-form multiplication count asserted against the measured
   counter and byte-identity asserted under a fixed DRBG; a grid-size
   sweep; and the sieved semi-safe prime search vs the seed-revision
   generate-and-test loop (Miller-Rabin calls and wall time).  Emits
   BENCH_ot.json. *)
let ot ?(out = "BENCH_ot.json") ?group ?(n = 25) ?(sweep_grids = [ 10; 25; 40 ])
    ?(search_q_bits = 128) trials =
  Format.printf
    "=== OT stage-1 hot path: comb/Straus engine & sieved prime search ===@.@.";
  let gc0 = Counters.gc_words () in
  let group =
    match group with Some g -> g | None -> Schnorr.paper_group ()
  in
  let drbg = Drbg.create ~seed:"bench-ot" () in
  let rand = Drbg.rand drbg in
  let m = n in
  let payloads =
    Array.init n (fun _ ->
        Array.init m (fun _ -> Drbg.bytes drbg Server.payload_len))
  in
  let server = Ot.Server.init ~group ~rand payloads in
  (* Correctness anchor before timing anything. *)
  let st, q = Ot.Client.query ~group ~rand ~i:(n / 2) ~j:(m / 2) () in
  let resp = Ot.Server.respond server q in
  assert (
    String.equal
      (Ot.Client.decode st ~masked:(Ot.Server.masked_table server) resp)
      payloads.(n / 2).(m / 2));
  (* Byte-identity: fed the same DRBG stream, the engine and the seed
     path must agree bit for bit. *)
  let d1 = Drbg.create ~seed:"bench-ot-oracle" () in
  let d2 = Drbg.create ~seed:"bench-ot-oracle" () in
  let fast = Ot.Server.respond ~rand:(Drbg.rand d1) server q in
  let slow = Ot.Server.respond_reference ~rand:(Drbg.rand d2) server q in
  let same (u, v) (u', v') = Z.equal u u' && Z.equal v v' in
  assert (Array.for_all2 same fast.Ot.rows slow.Ot.rows);
  assert (Array.for_all2 same fast.Ot.cols slow.Ot.cols);
  (* --- Ablation: wall time of one respond, engine vs reference. --- *)
  let reps = max 2 (min trials 10) in
  let sample f =
    let acc = ref 0. in
    for _ = 1 to reps do
      let _, dt = time f in
      acc := !acc +. dt
    done;
    !acc /. float_of_int reps
  in
  let t_ref = sample (fun () -> ignore (Ot.Server.respond_reference server q)) in
  let t_new = sample (fun () -> ignore (Ot.Server.respond server q)) in
  let speedup = t_ref /. t_new in
  Format.printf
    "  one respond at paper params (n = m = %d, |p| = %d, mean of %d):@." n
    (Schnorr.p_bits group) reps;
  Format.printf "    generic square-and-multiply (pre-PR): %8.4f s@." t_ref;
  Format.printf "    comb + Straus + per-base tables:      %8.4f s  (%.2fx)@."
    t_new speedup;
  (* --- Closed-form multiplication count, asserted exactly. --- *)
  let _, predicted, measured = Ot.Server.respond_counted server q in
  Format.printf
    "@.  closed form: predicted %d mults = measured %d (3n + 3m = %d exps)@."
    predicted measured ((3 * n) + (3 * m));
  assert (predicted = measured);
  (* --- Grid-size sweep: both paths stay O(n + m). --- *)
  Format.printf "@.  %-7s | %-14s | %-14s | %s@." "n=m" "reference (s)"
    "engine (s)" "speedup";
  Format.printf "  %s@." (String.make 55 '-');
  let sweep =
    List.map
      (fun k ->
        let payloads =
          Array.init k (fun _ ->
              Array.init k (fun _ -> Drbg.bytes drbg Server.payload_len))
        in
        let server = Ot.Server.init ~group ~rand payloads in
        let _, q = Ot.Client.query ~group ~rand ~i:(k / 2) ~j:(k / 2) () in
        let tr =
          sample (fun () -> ignore (Ot.Server.respond_reference server q))
        in
        let tn = sample (fun () -> ignore (Ot.Server.respond server q)) in
        Format.printf "  %-7d | %14.4f | %14.4f | %.2fx@." k tr tn (tr /. tn);
        (k, tr, tn))
      sweep_grids
  in
  (* --- Sieved prime search vs the seed generate-and-test loop. --- *)
  let pi = Z.pow (Z.of_int 3) 20 in
  let q_bits = search_q_bits in
  let searches = max 2 (min trials 5) in
  let run_search f =
    let metrics = Counters.create () in
    let acc = ref 0. in
    for _ = 1 to searches do
      let _, dt = time (fun () -> f metrics) in
      acc := !acc +. dt
    done;
    ((!acc /. float_of_int searches), Counters.snapshot metrics)
  in
  let t_sieved, s_sieved =
    run_search (fun metrics ->
        ignore (Primegen.semi_safe ~metrics ~q_bits ~multiple:pi rand))
  in
  let t_seed, s_seed =
    run_search (fun metrics ->
        ignore (Primegen.semi_safe_reference ~metrics ~q_bits ~multiple:pi rand))
  in
  let per x = float_of_int x /. float_of_int searches in
  Format.printf
    "@.  semi-safe search (|q| = %d, multiple = 3^20, mean of %d searches):@."
    q_bits searches;
  Format.printf
    "    seed loop:   %8.4f s, %7.1f candidates, %7.1f MR calls per search@."
    t_seed
    (per s_seed.Counters.prime_attempts)
    (per s_seed.Counters.mr_calls);
  Format.printf
    "    sieved walk: %8.4f s, %7.1f candidates (%7.1f sieved out), %7.1f MR calls per search@."
    t_sieved
    (per s_sieved.Counters.prime_attempts)
    (per s_sieved.Counters.sieve_rejects)
    (per s_sieved.Counters.mr_calls);
  let mr_ratio =
    float_of_int s_seed.Counters.mr_calls
    /. float_of_int (max 1 s_sieved.Counters.mr_calls)
  in
  Format.printf "    MR-call ratio (seed / sieved): %.2fx; wall %.2fx@."
    mr_ratio (t_seed /. t_sieved);
  J.write ~path:out
    (J.Obj
       ([ ( "params",
            J.Obj
              [ "rows", J.Int n; "cols", J.Int m;
                "p_bits", J.Int (Schnorr.p_bits group);
                "q_bits", J.Int (Schnorr.q_bits group) ] );
          ( "respond",
            J.Obj
              [ "reference_s", J.Float t_ref; "engine_s", J.Float t_new;
                "speedup", J.Float speedup;
                "predicted_mults", J.Int predicted;
                "measured_mults", J.Int measured ] );
          ( "grid_sweep",
            J.List
              (List.map
                 (fun (k, tr, tn) ->
                   J.Obj
                     [ "n", J.Int k; "reference_s", J.Float tr;
                       "engine_s", J.Float tn ])
                 sweep) );
          ( "prime_search",
            J.Obj
              [ "q_bits", J.Int q_bits; "searches", J.Int searches;
                "seed_s", J.Float t_seed; "sieved_s", J.Float t_sieved;
                "seed_mr_calls", J.Int s_seed.Counters.mr_calls;
                "sieved_mr_calls", J.Int s_sieved.Counters.mr_calls;
                "sieved_attempts", J.Int s_sieved.Counters.prime_attempts;
                "sieve_rejects", J.Int s_sieved.Counters.sieve_rejects;
                "mr_ratio", J.Float mr_ratio ] ) ]
        @ J.gc_fields (Counters.gc_delta ~since:gc0)));
  Format.printf "@.  Wrote %s.@.@." out;
  if speedup < 1.5 then
    Format.printf
      "  WARNING: respond speedup %.2fx below the 1.5x acceptance bar.@.@."
      speedup

(* ------------------------------------------------------------------ *)
(* Keypool: the offline/online stage-2 split                            *)
(* ------------------------------------------------------------------ *)

(* The offline/online query split (S VI): cold inline stage-2 query
   (Table IV prime search on the critical path) vs a warm take from a
   prewarmed keypool; pooled-refill byte-identity against the sequential
   reference oracle for 1 and 3 workers; prewarm wall time across pool
   size x worker count; and end-to-end protocol rounds with and without
   the pool.  Emits BENCH_keypool.json. *)
let keypool ?(out = "BENCH_keypool.json") ?(count = 16) ?(block_bits = 512)
    ?(q_bits = 64) ?(sweep_capacities = [ 1; 2 ]) ?(sweep_workers = [ 1; 2; 4 ])
    trials =
  Format.printf
    "=== Keypool: offline/online stage-2 split (%d records, %d-bit blocks, \
     |q| = %d, %d trials) ===@.@."
    count block_bits q_bits trials;
  let gc0 = Counters.gc_words () in
  let drbg = Drbg.create ~seed:"bench-keypool" () in
  let rand = Drbg.rand drbg in
  let plan = Gr.make_plan ~count ~block_bits () in
  (* --- Online latency: cold inline build vs warm pool take. --- *)
  let reps = max 3 trials in
  let t_cold =
    Array.init reps (fun i ->
        let index = i mod count in
        snd (time (fun () -> ignore (Gr.Client.query ~plan ~index ~q_bits rand))))
  in
  (* Capacity exceeds every timed take, so each one pops prebuilt and
     no stripe hits the watermark mid-measurement. *)
  let per_index = 1 + ((reps + count - 1) / count) in
  let t_warm =
    Keypool.with_pool
      ~config:{ Keypool.capacity = per_index; low_watermark = 0 }
      ~domains:2 ~seed:"bench-keypool-warm" ~plan ~q_bits
      (fun pool ->
        Keypool.prewarm pool;
        Array.init reps (fun i ->
            let index = i mod count in
            snd (time (fun () -> ignore (Keypool.take pool ~index)))))
  in
  let cold = mean t_cold in
  let warm = Float.max (mean t_warm) 1e-9 in
  let speedup = cold /. warm in
  Format.printf "  cold (inline prime search): %10.6f s/query (+/- %.6f)@."
    cold (stddev t_cold);
  Format.printf "  warm (pool take):           %10.6f s/query (+/- %.6f)@."
    warm (stddev t_warm);
  Format.printf "  speedup: %.0fx@." speedup;
  assert (speedup >= 20.);
  (* --- Byte-identity: pooled refill vs the sequential oracle. --- *)
  let gens = 2 in
  let ident_seed = "bench-keypool-ident" in
  let takes workers =
    Keypool.with_pool
      ~config:{ Keypool.capacity = gens; low_watermark = 0 }
      ~domains:workers ~seed:ident_seed ~plan ~q_bits
      (fun pool ->
        Keypool.prewarm pool;
        List.init count (fun index ->
            List.init gens (fun _ -> snd (Keypool.take pool ~index))))
  in
  let w1 = takes 1 in
  let w3 = takes 3 in
  let reference =
    List.init count (fun index ->
        List.init gens (fun generation ->
            snd
              (Keypool.build_reference ~seed:ident_seed ~plan ~q_bits ~index
                 ~generation ())))
  in
  let same (n, g) (n', g') = Z.equal n n' && Z.equal g g' in
  assert (List.for_all2 (List.for_all2 same) w1 reference);
  assert (List.for_all2 (List.for_all2 same) w3 reference);
  Format.printf
    "@.  identity: %d pooled instances (1- and 3-worker refill) byte-identical \
     to the sequential reference@."
    (gens * count);
  (* --- Prewarm wall time: pool size x worker count. --- *)
  Format.printf "@.  %-9s | %-8s | %-10s | %s@." "capacity" "workers"
    "instances" "prewarm (s)";
  Format.printf "  %s@." (String.make 48 '-');
  let sweep =
    List.concat_map
      (fun capacity ->
        List.map
          (fun workers ->
            let gcs = Counters.gc_words () in
            let dt =
              snd
                (time (fun () ->
                     Keypool.with_pool
                       ~config:{ Keypool.capacity; low_watermark = 0 }
                       ~domains:workers
                       ~seed:
                         (Printf.sprintf "bench-keypool-sweep-%d-%d" capacity
                            workers)
                       ~plan ~q_bits Keypool.prewarm))
            in
            Format.printf "  %-9d | %-8d | %-10d | %.3f@." capacity workers
              (capacity * count) dt;
            J.Obj
              ([ "capacity", J.Int capacity; "workers", J.Int workers;
                 "instances", J.Int (capacity * count);
                 "prewarm_s", J.Float dt ]
               @ J.gc_fields (Counters.gc_delta ~since:gcs)))
          sweep_workers)
      sweep_capacities
  in
  (* --- End-to-end rounds with and without the pool. --- *)
  let area =
    Coord.Rect.make ~min:(Coord.make ~x:0. ~y:0.)
      ~max:(Coord.make ~x:3000. ~y:3000.)
  in
  let pois =
    List.init 9 (fun idx ->
        let row = idx / 3 and col = idx mod 3 in
        Poi.make ~id:idx
          ~position:(Coord.make
                       ~x:((float_of_int col *. 1000.) +. 500.)
                       ~y:((float_of_int row *. 1000.) +. 500.))
          ~category:"c" ~name:"n")
  in
  let params = Params.test ~seed:"bench-keypool-e2e" () in
  let server = Server.create params ~area pois in
  let info = Server.public_info server in
  let position = Coord.make ~x:1500. ~y:1500. in
  let rounds = max 2 trials in
  let fresh =
    let client = Client.create ~seed:"bench-keypool-fresh" info in
    Array.init rounds (fun _ ->
        snd (time (fun () -> ignore (Protocol.run_round client server ~position))))
  in
  let pooled =
    let client = Client.create ~seed:"bench-keypool-pooled" info in
    (* capacity > rounds: no stripe ever reaches the watermark, so no
       background refill competes with the timed rounds for cores. *)
    Keypool.with_pool
      ~config:{ Keypool.capacity = rounds + 1; low_watermark = 0 }
      ~domains:2 ~seed:"bench-keypool-e2e-pool" ~plan:info.Server.plan
      ~q_bits:params.Params.q_bits
      (fun pool ->
        Keypool.prewarm pool;
        Array.init rounds (fun _ ->
            snd
              (time (fun () ->
                   ignore (Protocol.run_round ~pool client server ~position)))))
  in
  Format.printf
    "@.  e2e round (test preset, %d rounds): fresh %.3f s, pooled %.3f s \
     (%.1fx)@."
    rounds (mean fresh) (mean pooled)
    (mean fresh /. mean pooled);
  J.write ~path:out
    (J.Obj
       ([ ( "params",
            J.Obj
              [ "records", J.Int count; "block_bits", J.Int block_bits;
                "q_bits", J.Int q_bits; "trials", J.Int trials ] );
          ( "latency",
            J.Obj
              [ "cold_s", J.Float cold; "warm_s", J.Float warm;
                "speedup", J.Float speedup ] );
          ( "identity",
            J.Obj
              [ "instances", J.Int (gens * count);
                "byte_identical", J.Bool true ] );
          "prewarm_sweep", J.List sweep;
          ( "e2e",
            J.Obj
              [ "rounds", J.Int rounds; "fresh_s", J.Float (mean fresh);
                "pooled_s", J.Float (mean pooled);
                "speedup", J.Float (mean fresh /. mean pooled) ] ) ]
        @ J.gc_fields (Counters.gc_delta ~since:gc0)));
  Format.printf "@.  Wrote %s.  The prime search moves off the online@." out;
  Format.printf
    "  path; a warm stage-2 query is a ring-buffer pop and every pooled@.";
  Format.printf
    "  instance is byte-identical to the no-pool run (same DRBG fork).@.@."

(* ------------------------------------------------------------------ *)
(* backends: the pluggable PIR arena head-to-head                       *)
(* ------------------------------------------------------------------ *)

(* The same deterministic database served under every registered PIR
   backend at matched grid sizes: per (backend x grid), communication
   (wire-framed query/response bytes), server multiplications (the cost
   oracle asserted equal to the measured counter, in each backend's own
   mult unit — bignum modmuls for gr/qr, word mults for lwe), and
   per-phase wall time.  Retrieval correctness and cross-backend decode
   agreement are asserted on every fetch.  Emits BENCH_backends.json. *)
let backends_bench ?(out = "BENCH_backends.json")
    ?(grids = [ (4, 4, 32); (8, 8, 32); (8, 8, 96) ]) trials =
  let module Pb = Lbq_pir_backend.Backend_intf in
  let module Registry = Lbq_pir_backend.Registry in
  let module Instance = Registry.Instance in
  Format.printf
    "=== Backends: pluggable PIR arena head-to-head (%d trials) ===@.@."
    trials;
  let gc0 = Counters.gc_words () in
  let drbg = Drbg.create ~seed:"bench-backends" () in
  let reps = max 2 trials in
  let mult_unit = function
    | Pb.Bignum_modmul -> "bignum_modmul"
    | Pb.Word_mul -> "word_mul"
  in
  let rows_out = ref [] in
  Format.printf "  %-11s | %-4s | %-9s | %-10s | %-12s | %-10s | %-10s | %s@."
    "grid" "pir" "query (B)" "answer (B)" "server mults" "query (s)"
    "respond (s)" "decode (s)";
  Format.printf "  %s@." (String.make 100 '-');
  List.iter
    (fun (rows, cols, len) ->
      let blocks =
        Array.init rows (fun r ->
            Array.init cols (fun c ->
                String.init len (fun k ->
                    Char.chr (((r * 131) + (c * 29) + (k * 7)) land 0xff))))
      in
      (* Shared target plan so every backend answers the same fetches. *)
      let plan_drbg =
        Drbg.create ~seed:(Printf.sprintf "bench-backends-%dx%d" rows cols) ()
      in
      let targets =
        Array.init reps (fun _ ->
            (Drbg.int plan_drbg rows, Drbg.int plan_drbg cols))
      in
      List.iter
        (fun backend ->
          let module M = (val backend : Pb.S) in
          let metrics = Counters.create () in
          let inst =
            Instance.create ~metrics ~rand:(Drbg.rand drbg) backend blocks
          in
          let tq = ref 0. and tr = ref 0. and td = ref 0. in
          let qbytes = ref 0 and rbytes = ref 0 and mults = ref 0 in
          Array.iter
            (fun (row, col) ->
              let r =
                Instance.fetch ~clock:Unix.gettimeofday
                  ~rand:(Drbg.rand drbg) ~row ~col inst
              in
              assert (String.equal r.Instance.block blocks.(row).(col));
              assert (
                r.Instance.predicted.Pb.query_bytes
                = String.length r.Instance.query_wire);
              assert (
                r.Instance.predicted.Pb.response_bytes
                = String.length r.Instance.response_wire);
              assert (
                r.Instance.predicted.Pb.server_mults
                = r.Instance.measured_server_mults);
              tq := !tq +. r.Instance.query_s;
              tr := !tr +. r.Instance.respond_s;
              td := !td +. r.Instance.decode_s;
              qbytes := !qbytes + String.length r.Instance.query_wire;
              rbytes := !rbytes + String.length r.Instance.response_wire;
              mults := !mults + r.Instance.measured_server_mults)
            targets;
          let per x = x /. float_of_int reps in
          let peri x = float_of_int x /. float_of_int reps in
          Format.printf
            "  %3dx%-3d %3dB | %-4s | %9.0f | %10.0f | %12.0f | %10.5f | \
             %10.5f | %.5f@."
            rows cols len M.name (peri !qbytes) (peri !rbytes) (peri !mults)
            (per !tq) (per !tr) (per !td);
          rows_out :=
            J.Obj
              [ "rows", J.Int rows; "cols", J.Int cols; "block_bytes", J.Int len;
                "backend", J.Str M.name;
                "mult_unit", J.Str (mult_unit M.mult_kind);
                "trials", J.Int reps;
                "query_bytes", J.Float (peri !qbytes);
                "response_bytes", J.Float (peri !rbytes);
                "server_mults", J.Float (peri !mults);
                "query_s", J.Float (per !tq); "respond_s", J.Float (per !tr);
                "decode_s", J.Float (per !td) ]
            :: !rows_out)
        (Registry.all ()))
    grids;
  J.write ~path:out
    (J.Obj
       ([ "grids", J.List (List.rev !rows_out) ]
        @ J.gc_fields (Counters.gc_delta ~since:gc0)));
  Format.printf
    "@.  Wrote %s.  Mult units differ by backend: gr/qr count@." out;
  Format.printf
    "  bignum modular multiplications, lwe counts machine-word multiply-@.";
  Format.printf
    "  accumulates — compare shapes per column, not across unit kinds.@.";
  Format.printf
    "  Every row asserts predicted = measured for bytes and mults.@.@."

(* ------------------------------------------------------------------ *)
(* powm: limb-engine kernel microbenchmark, old vs new                  *)
(* ------------------------------------------------------------------ *)

(* The limb-level engine rewrite head-to-head with the engine it
   replaced, on matched inputs: ns/op and minor-heap words/op for the
   Montgomery kernel multiply and squaring and for a full window-ladder
   powm, per modulus size — 512 and 1024 (the stage-1 Schnorr prime),
   1331 (the stage-2 honest modulus N = Q0*Q1) and 2048 bits.  Old =
   the pre-rewrite multiply-then-REDC paths kept verbatim as
   [Montgomery.*_reference]; new = the fused 2^29-radix CIOS sweeps.
   The two engines' powm results are asserted byte-identical before any
   timing.  Emits a summary block plus per-(size, op) rows;
   [powm_guard] (make check) gates on the quick artifact's summary. *)
let powm_bench ?(out = "BENCH_powm.json") ?(sizes = [ 512; 1024; 1331; 2048 ])
    ?(powm_iters = 3) ?(kernel_iters = 400) trials =
  Format.printf
    "=== powm kernel: fused CIOS engine vs pre-rewrite reference (%d trials) ===@.@."
    trials;
  let drbg = Drbg.create ~seed:"bench-powm" () in
  let rand = Drbg.rand drbg in
  (* Min-of-trials wall time (the machine only ever adds noise); words
     per op from the last repetition (allocation is deterministic).
     [Gc.minor_words] rather than [quick_stat]: only the former reads
     the young pointer and is exact in native code. *)
  let measure iters f =
    let best_ns = ref infinity and words = ref 0. in
    for _ = 1 to max 1 trials do
      let w0 = Gc.minor_words () in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to iters do
        ignore (f ())
      done;
      let dt = Unix.gettimeofday () -. t0 in
      let w1 = Gc.minor_words () in
      let ns = dt *. 1e9 /. float_of_int iters in
      if ns < !best_ns then best_ns := ns;
      words := (w1 -. w0) /. float_of_int iters
    done;
    (!best_ns, !words)
  in
  let rows = ref [] in
  let min_powm_speedup = ref infinity in
  let max_kernel_words = ref 0. in
  Format.printf "  %-5s | %-7s | %12s | %12s | %8s | %10s@." "bits" "op"
    "old (ns)" "new (ns)" "speedup" "new w/op";
  Format.printf "  %s@." (String.make 66 '-');
  List.iter
    (fun bits ->
      (* Random odd modulus of exactly [bits] bits and full-width
         operands: short residues would time a shorter multiply. *)
      let rec modulus () =
        let c = Z.random_bits ~bits rand in
        if Z.numbits c < bits then modulus ()
        else if Z.is_even c then Z.succ c
        else c
      in
      let m = modulus () in
      let ctx = Montgomery.create m in
      let a = Z.erem (Z.random_bits ~bits rand) m in
      let b = Z.erem (Z.random_bits ~bits rand) m in
      let e = Z.random_bits ~bits rand in
      let sched = Wexp.recode (Z.to_nat e) in
      let znew = Montgomery.powm_sched ctx a sched in
      let zold = Montgomery.powm_sched_reference ctx a sched in
      if not (Z.equal znew zold) then
        failwith "bench powm: engines disagree at the gate";
      let am = Montgomery.to_mont ctx a in
      let bm = Montgomery.to_mont ctx b in
      let ops =
        [ ("powm", powm_iters,
           (fun () -> ignore (Montgomery.powm_sched ctx a sched)),
           fun () -> ignore (Montgomery.powm_sched_reference ctx a sched));
          ("mulmod", kernel_iters,
           (fun () -> ignore (Montgomery.mont_mul ctx am bm)),
           fun () -> ignore (Montgomery.mont_mul_reference ctx am bm));
          ("sqrmod", kernel_iters,
           (fun () -> ignore (Montgomery.mont_sqr ctx am)),
           fun () -> ignore (Montgomery.mont_sqr_reference ctx am)) ]
      in
      List.iter
        (fun (op, iters, fnew, fold) ->
          let new_ns, new_words = measure iters fnew in
          let old_ns, old_words = measure iters fold in
          let speedup = old_ns /. new_ns in
          if op = "powm" && speedup < !min_powm_speedup then
            min_powm_speedup := speedup;
          if op <> "powm" && new_words > !max_kernel_words then
            max_kernel_words := new_words;
          Format.printf "  %-5d | %-7s | %12.1f | %12.1f | %7.2fx | %10.1f@."
            bits op old_ns new_ns speedup new_words;
          rows :=
            J.Obj
              [ "bits", J.Int bits; "op", J.Str op; "iters", J.Int iters;
                "old_ns_per_op", J.Float old_ns;
                "new_ns_per_op", J.Float new_ns;
                "speedup", J.Float speedup;
                "old_minor_words_per_op", J.Float old_words;
                "new_minor_words_per_op", J.Float new_words ]
            :: !rows)
        ops)
    sizes;
  J.write ~path:out
    (J.Obj
       [ ("summary",
          J.Obj
            [ "min_powm_speedup", J.Float !min_powm_speedup;
              "max_kernel_minor_words_per_op", J.Float !max_kernel_words;
              "trials", J.Int trials ]);
         "rows", J.List (List.rev !rows) ]);
  Format.printf
    "@.  Wrote %s.  Worst powm speedup %.2fx; kernel allocation@." out
    !min_powm_speedup;
  Format.printf
    "  peaks at %.1f minor words/op (the fused sweeps run entirely in@."
    !max_kernel_words;
  Format.printf "  Scratch windows; only the narrowed result is fresh).@.@."

(* make-check gate on the limb-engine rewrite: reads the summary block
   of the quick artifact (written by `quick` moments earlier in `make
   check`) and fails if the fused engine's advantage erodes below the
   quick floor or the kernels start allocating per iteration.  The full
   BENCH_powm.json targets >= 2x at deployment sizes; the quick floor
   is deliberately lower (tiny iteration counts on a shared machine). *)
let powm_guard ?(path = "BENCH_powm.quick.json") () =
  let speedup_floor = 1.5 and words_budget = 256. in
  let s =
    match open_in_bin path with
    | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    | exception Sys_error _ ->
      Format.eprintf "powm-guard: %s missing (run `make bench-quick`)@." path;
      exit 2
  in
  (* The artifact is our own emitter's output: scan for the summary key
     and parse the number after the colon. *)
  let float_after key =
    let key = "\"" ^ key ^ "\"" in
    let kl = String.length key and sl = String.length s in
    let rec find i =
      if i + kl > sl then None
      else if String.sub s i kl = key then begin
        let j = ref (i + kl) in
        while
          !j < sl && (match s.[!j] with ' ' | ':' -> true | _ -> false)
        do
          incr j
        done;
        let st = !j in
        while
          !j < sl
          && (match s.[!j] with
             | '0' .. '9' | '.' | '-' | '+' | 'e' -> true
             | _ -> false)
        do
          incr j
        done;
        float_of_string_opt (String.sub s st (!j - st))
      end
      else find (i + 1)
    in
    find 0
  in
  let need key =
    match float_after key with
    | Some v -> v
    | None ->
      Format.eprintf "powm-guard: %s has no %s field@." path key;
      exit 2
  in
  let speedup = need "min_powm_speedup" in
  let words = need "max_kernel_minor_words_per_op" in
  let ok_speed = speedup >= speedup_floor in
  let ok_words = words <= words_budget in
  Format.printf "  powm-guard: min powm speedup %.2fx (floor %.1fx) %s@."
    speedup speedup_floor (if ok_speed then "OK" else "FAIL");
  Format.printf "  powm-guard: kernel minor words/op %.1f (budget %.0f) %s@."
    words words_budget (if ok_words then "OK" else "FAIL");
  if not (ok_speed && ok_words) then exit 1

(* ------------------------------------------------------------------ *)
(* serve: multi-tenant sustained load on the sharded service            *)
(* ------------------------------------------------------------------ *)

(* The PR 8 serving layer under sustained closed-loop traffic: a fleet
   of simulated tenants drives the sharded worker-domain service, and
   every (clients x domains x queue depth) cell reports completed
   rounds/sec plus p50/p95/p99 from the round-latency histogram.  A
   byte-identity gate runs before anything is timed: at the same shard
   count, the pump-mode single-threaded service and the spawned
   multi-domain one must produce identical fleet transcripts, so the
   bench can never publish numbers from a service that diverged from
   the sequential oracle.  A final sweep re-runs the largest
   configuration under chaos packet loss and reports how throughput
   degrades with p.  The summary block — seq_qps (best 1-domain cell),
   par_qps (best cell at >= 2 domains) — is what [serve_guard]
   (make check) gates on: striping the grid over S shards cuts each
   respond's exponent to ~|e|/S bits on top of the S-way parallelism,
   so the pooled service must not lose to the serial one. *)
let serve ?(out = "BENCH_serve.json") ?(clients = [ 1; 4; 8 ])
    ?(domains = [ 1; 2; 4 ]) ?(queue_depths = [ 4; 64 ])
    ?(loss_ps = [ 0.05; 0.15 ]) trials =
  let open Lbq_net in
  let module H = Lbq_metrics.Histogram in
  let rounds = max 2 trials in
  Format.printf
    "=== serve: multi-tenant sustained load (%d rounds/tenant) ===@.@." rounds;
  let gc_all = Counters.gc_words () in
  (* A wide, shallow deployment: 36 small private cells rather than
     Params.test's 9 larger ones.  Striping pays off in proportion to
     |e| = sum of the per-cell prime-power widths, while the client's
     fixed per-round decode cost scales only with its one target cell —
     wide-and-shallow is exactly the shape where a sharded server
     shines (and the realistic one: city-scale grids are wide). *)
  let params =
    Params.make ~q_bits:24 ~seed:"bench-serve"
      ~group:(Schnorr.test_group ()) ~public_rows:6 ~public_cols:6
      ~private_rows:6 ~private_cols:6 ~rmax:1 ()
  in
  let area =
    Coord.Rect.make ~min:(Coord.make ~x:0. ~y:0.)
      ~max:(Coord.make ~x:3000. ~y:3000.)
  in
  let pois =
    List.init 36 (fun idx ->
        let row = idx / 6 and col = idx mod 6 in
        Poi.make ~id:idx
          ~position:(Coord.make
                       ~x:((float_of_int col *. 500.) +. 250.)
                       ~y:((float_of_int row *. 500.) +. 250.))
          ~category:"c" ~name:"n")
  in
  let server = Server.create params ~area pois in
  let info = Server.public_info server in
  let run ?pool ?(reuse = false) ~tenants ~shards ~queue_depth ~chaos ~record
      ~spawn ~seed () =
    Service.with_service ~ot_seed:"bench-serve-svc" ~queue_depth ~spawn ~shards
      server (fun svc ->
        Fleet.run ?pool svc
          { Fleet.default_config with
            Fleet.tenants; stop = Fleet.Rounds rounds; chaos; seed; record;
            reuse })
  in
  (* --- Gate: pooled serving is byte-identical to the sequential
     reference — same assertion as the test suite, re-made on the bench
     deployment before any timing. *)
  let gate_shards = max 2 (List.fold_left max 1 domains) in
  let gate ~spawn =
    run ~tenants:3 ~shards:gate_shards ~queue_depth:64 ~chaos:None
      ~record:true ~spawn ~seed:"serve-identity" ()
  in
  let reference = gate ~spawn:false in
  let concurrent = gate ~spawn:true in
  let entries_equal (a : Fleet.entry) (b : Fleet.entry) =
    a.Fleet.idq = b.Fleet.idq
    && String.equal a.Fleet.key b.Fleet.key
    && Z.equal a.Fleet.ge b.Fleet.ge
    && a.Fleet.pois = b.Fleet.pois
  in
  Array.iteri
    (fun t ref_log ->
      let con_log = concurrent.Fleet.transcripts.(t) in
      if
        List.length ref_log <> List.length con_log
        || not (List.for_all2 entries_equal ref_log con_log)
      then
        failwith
          (Printf.sprintf
             "bench serve: tenant %d transcript diverges from the sequential \
              reference" t))
    reference.Fleet.transcripts;
  Format.printf
    "  identity gate: pump-mode and %d-domain transcripts byte-identical \
     (%d rounds)@.@."
    gate_shards (reference.Fleet.rounds + concurrent.Fleet.rounds);
  (* --- The clients x domains x queue-depth sweep.  The fleet driver
     is single-threaded, so its per-round stage-2 setup cost (the
     semi-safe prime search) would mask the server-side scaling under
     test: timed rows run with §VI per-cell instance reuse plus a
     shared prewarmed keypool for first visits, pushing the driver's
     share of a round to microseconds. *)
  Keypool.with_pool
    ~config:{ Keypool.capacity = 4; low_watermark = 1 }
    ~domains:2 ~seed:"bench-serve-pool" ~plan:info.Server.plan
    ~q_bits:params.Params.q_bits
  @@ fun pool ->
  Keypool.prewarm pool;
  let rows = ref [] in
  let seq_qps = ref 0. and par_qps = ref 0. in
  Format.printf "  %-7s | %-7s | %-5s | %8s | %9s | %9s | %9s | %5s@."
    "clients" "domains" "queue" "q/s" "p50 (ms)" "p95 (ms)" "p99 (ms)" "sheds";
  Format.printf "  %s@." (String.make 76 '-');
  List.iter
    (fun tenants ->
      List.iter
        (fun shards ->
          List.iter
            (fun queue_depth ->
              let gc0 = Counters.gc_words () in
              let o =
                run ~pool ~reuse:true ~tenants ~shards ~queue_depth
                  ~chaos:None ~record:false ~spawn:true
                  ~seed:
                    (Printf.sprintf "serve-%d-%d-%d" tenants shards queue_depth)
                  ()
              in
              let h = o.Fleet.round_latency in
              let ms q = H.quantile_s h q *. 1e3 in
              Format.printf
                "  %-7d | %-7d | %-5d | %8.1f | %9.2f | %9.2f | %9.2f | %5d@."
                tenants shards queue_depth o.Fleet.qps (ms 0.50) (ms 0.95)
                (ms 0.99) o.Fleet.sheds;
              if shards = 1 then seq_qps := Float.max !seq_qps o.Fleet.qps
              else par_qps := Float.max !par_qps o.Fleet.qps;
              rows :=
                J.Obj
                  ([ "clients", J.Int tenants; "domains", J.Int shards;
                     "queue_depth", J.Int queue_depth;
                     "rounds", J.Int o.Fleet.rounds;
                     "failed", J.Int o.Fleet.failed;
                     "sheds", J.Int o.Fleet.sheds;
                     "retries", J.Int o.Fleet.retries;
                     "duration_s", J.Float o.Fleet.duration_s;
                     "qps", J.Float o.Fleet.qps ]
                   @ J.quantile_fields h
                   @ J.gc_fields (Counters.gc_delta ~since:gc0))
                :: !rows)
            queue_depths)
        domains)
    clients;
  (* --- Throughput under packet loss: the largest configuration,
     chaos drop/corrupt swept over p.  Request-path losses never reach
     the server; response-path losses waste a full respond — the
     asymmetry that makes throughput fall faster than (1 - p). *)
  let loss_tenants = List.fold_left max 1 clients in
  let loss_shards = List.fold_left max 1 domains in
  let loss_rows = ref [] in
  Format.printf "@.  %-6s | %8s | %8s | %7s | %7s | %7s@." "p" "q/s"
    "rounds" "failed" "drops" "retries";
  Format.printf "  %s@." (String.make 58 '-');
  List.iter
    (fun p ->
      let gc0 = Counters.gc_words () in
      let chaos = if p = 0. then None else Some (Chaos.drop_corrupt ~p) in
      let o =
        run ~pool ~reuse:true ~tenants:loss_tenants ~shards:loss_shards
          ~queue_depth:64 ~chaos ~record:false ~spawn:true
          ~seed:(Printf.sprintf "serve-loss-%f" p) ()
      in
      Format.printf "  %-6.2f | %8.1f | %8d | %7d | %7d | %7d@." p o.Fleet.qps
        o.Fleet.rounds o.Fleet.failed o.Fleet.drops o.Fleet.retries;
      loss_rows :=
        J.Obj
          ([ "p", J.Float p; "clients", J.Int loss_tenants;
             "domains", J.Int loss_shards; "rounds", J.Int o.Fleet.rounds;
             "failed", J.Int o.Fleet.failed; "drops", J.Int o.Fleet.drops;
             "sheds", J.Int o.Fleet.sheds; "retries", J.Int o.Fleet.retries;
             "qps", J.Float o.Fleet.qps ]
           @ J.quantile_fields o.Fleet.round_latency
           @ J.gc_fields (Counters.gc_delta ~since:gc0))
        :: !loss_rows)
    (0. :: loss_ps);
  let speedup = if !seq_qps > 0. then !par_qps /. !seq_qps else 0. in
  J.write ~path:out
    (J.Obj
       ([ ( "summary",
            J.Obj
              [ "seq_qps", J.Float !seq_qps; "par_qps", J.Float !par_qps;
                "speedup", J.Float speedup;
                "byte_identical", J.Bool true;
                "rounds_per_tenant", J.Int rounds;
                "cores", J.Int (Domain.recommended_domain_count ()) ] );
          "rows", J.List (List.rev !rows);
          "loss_rows", J.List (List.rev !loss_rows) ]
        @ J.gc_fields (Counters.gc_delta ~since:gc_all)));
  Format.printf
    "@.  Wrote %s.  Best 1-domain %.1f q/s, best multi-domain %.1f q/s@." out
    !seq_qps !par_qps;
  Format.printf
    "  (%.2fx): striping cuts each respond to ~1/S of the exponent on@."
    speedup;
  Format.printf "  top of the S-way domain parallelism.@.@."

(* make-check gate on the serving layer: reads the summary block of the
   quick artifact and fails if the sharded multi-domain service has
   stopped beating the single-domain one — the floor is 1.0x because
   sharding alone (shorter exponents) should dominate any queueing
   overhead, before parallelism is even counted. *)
let serve_guard ?(path = "BENCH_serve.quick.json") () =
  let speedup_floor = 1.0 in
  let s =
    match open_in_bin path with
    | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    | exception Sys_error _ ->
      Format.eprintf "serve-guard: %s missing (run `make bench-quick`)@." path;
      exit 2
  in
  let float_after key =
    let key = "\"" ^ key ^ "\"" in
    let kl = String.length key and sl = String.length s in
    let rec find i =
      if i + kl > sl then None
      else if String.sub s i kl = key then begin
        let j = ref (i + kl) in
        while
          !j < sl && (match s.[!j] with ' ' | ':' -> true | _ -> false)
        do
          incr j
        done;
        let st = !j in
        while
          !j < sl
          && (match s.[!j] with
             | '0' .. '9' | '.' | '-' | '+' | 'e' -> true
             | _ -> false)
        do
          incr j
        done;
        float_of_string_opt (String.sub s st (!j - st))
      end
      else find (i + 1)
    in
    find 0
  in
  let need key =
    match float_after key with
    | Some v -> v
    | None ->
      Format.eprintf "serve-guard: %s has no %s field@." path key;
      exit 2
  in
  let seq = need "seq_qps" in
  let par = need "par_qps" in
  let speedup = if seq > 0. then par /. seq else 0. in
  let ok = speedup >= speedup_floor in
  Format.printf
    "  serve-guard: 1-domain %.1f q/s, multi-domain %.1f q/s — %.2fx \
     (floor %.1fx) %s@."
    seq par speedup speedup_floor (if ok then "OK" else "FAIL");
  if not ok then exit 1

(* ------------------------------------------------------------------ *)
(* batch: fused multi-query respond vs sequential, per backend          *)
(* ------------------------------------------------------------------ *)

(* The batched-respond tentpole head-to-head with its own sequential
   fallback, per backend and batch size: k queries answered by one
   fused kernel pass — lwe packs the k query vectors and makes one
   cache-blocked M.Q^T sweep, gr interleaves k Montgomery states
   through one walk of the cached exponent schedule, qr applies k
   masks in one traversal of the database bits — against k independent
   [respond] calls on the same queries.  An identity gate runs at every
   k before anything is timed: batched response bytes and server-mult
   counter deltas must equal the sequential ones, so the bench can
   never publish numbers from a kernel that diverged.  Emits amortised
   per-query ns, q/s and mults/query per (backend, k); [batch_guard]
   (make check) gates on the quick artifact's summary — every backend
   must have some k >= 4 where batching does not lose to sequential. *)
let batch_bench ?(out = "BENCH_batch.json") ?(rows = 8) ?(cols = 8)
    ?(len = 32) ?(lwe_grid = (8, 2048, 64)) ?(batch_sizes = [ 1; 2; 4; 8; 16 ])
    trials =
  let module Pb = Lbq_pir_backend.Backend_intf in
  let module Registry = Lbq_pir_backend.Registry in
  Format.printf
    "=== batch: fused multi-query respond vs sequential (%d trials) ===@.@."
    trials;
  let gc0 = Counters.gc_words () in
  let max_k = List.fold_left max 1 batch_sizes in
  let make_blocks rows cols len =
    Array.init rows (fun r ->
        Array.init cols (fun c ->
            String.init len (fun k ->
                Char.chr (((r * 131) + (c * 29) + (k * 7)) land 0xff))))
  in
  (* One trial times seq and batch back to back (drift cancels); the
     published cell is the min across trials of each side.  [iters] is
     calibrated per cell so a sample spans >= ~20 ms — at lwe's
     microsecond respond times a single call is all timer noise. *)
  let measure_pair iters f g =
    let best_f = ref infinity and best_g = ref infinity in
    let once h =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to iters do
        ignore (h ())
      done;
      (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters
    in
    for _ = 1 to max 1 trials do
      let fs = once f in
      let gs = once g in
      if fs < !best_f then best_f := fs;
      if gs < !best_g then best_g := gs
    done;
    (!best_f, !best_g)
  in
  let rows_out = ref [] in
  (* per backend: the best amortisation at any k >= 4, and the k = 8
     cell — min/max'd across backends for the summary block *)
  let min_backend_speedup_k4 = ref infinity and best_speedup_k8 = ref 0. in
  Format.printf "  %-4s | %-3s | %12s | %12s | %8s | %10s | %12s@." "pir" "k"
    "seq (ns/q)" "batch (ns/q)" "speedup" "batch q/s" "mults/query";
  Format.printf "  %s@." (String.make 78 '-');
  List.iter
    (fun backend ->
      let module M = (val backend : Pb.S) in
      (* lwe gets its own wider grid: its respond is a byte-matrix scan
         whose batch amortisation is per-element, so the cell must be
         big enough (quarter-megabyte matrix, ~10^5 MACs per query)
         that kernel time, not per-call overhead or timer jitter, is
         what's measured.  The modpow backends keep the small grid —
         their per-query cost is already milliseconds. *)
      let rows, cols, len =
        if M.name = "lwe" then lwe_grid else (rows, cols, len)
      in
      let blocks = make_blocks rows cols len in
      let metrics = Counters.create () in
      let rand = Drbg.rand (Drbg.create ~seed:("bench-batch-" ^ M.name) ()) in
      let server = M.encode ~metrics ~rand blocks in
      let public = M.public server in
      let plan =
        Drbg.create ~seed:(Printf.sprintf "bench-batch-plan-%s" M.name) ()
      in
      let queries =
        Array.init max_k (fun _ ->
            let row = Drbg.int plan rows and col = Drbg.int plan cols in
            snd (M.query ~metrics ~rand ~public ~row ~col ()))
      in
      (* identity + counter-parity gate at every k before any timing *)
      let mult () = (Counters.snapshot metrics).Counters.server_mult in
      List.iter
        (fun k ->
          let qs = Array.sub queries 0 k in
          let m0 = mult () in
          let seq = Array.map (M.respond server) qs in
          let seq_mults = mult () - m0 in
          let m1 = mult () in
          let bat = M.respond_batch server qs in
          if mult () - m1 <> seq_mults then
            failwith
              (Printf.sprintf "bench batch: %s k=%d counter parity broken"
                 M.name k);
          Array.iteri
            (fun i r ->
              if
                not
                  (String.equal (M.response_encode seq.(i))
                     (M.response_encode r))
              then
                failwith
                  (Printf.sprintf
                     "bench batch: %s k=%d reply %d diverges from sequential"
                     M.name k i))
            bat)
        batch_sizes;
      let backend_best_k4 = ref 0. in
      List.iter
        (fun k ->
          let qs = Array.sub queries 0 k in
          let m0 = mult () in
          let t0 = Unix.gettimeofday () in
          ignore (M.respond_batch server qs);
          let est_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
          let mults_per_q = float_of_int (mult () - m0) /. float_of_int k in
          let iters =
            max 1 (min 2000 (int_of_float (4e7 /. Float.max 1. est_ns)))
          in
          let seq_total, bat_total =
            measure_pair iters
              (fun () -> Array.map (M.respond server) qs)
              (fun () -> M.respond_batch server qs)
          in
          let seq_ns = seq_total /. float_of_int k in
          let bat_ns = bat_total /. float_of_int k in
          let speedup = seq_ns /. bat_ns in
          let qps = 1e9 /. bat_ns in
          if k >= 4 then backend_best_k4 := Float.max !backend_best_k4 speedup;
          if k = 8 then best_speedup_k8 := Float.max !best_speedup_k8 speedup;
          Format.printf
            "  %-4s | %-3d | %12.0f | %12.0f | %7.2fx | %10.0f | %12.0f@."
            M.name k seq_ns bat_ns speedup qps mults_per_q;
          rows_out :=
            J.Obj
              [ "backend", J.Str M.name; "k", J.Int k; "rows", J.Int rows;
                "cols", J.Int cols; "block_bytes", J.Int len;
                "seq_ns_per_query", J.Float seq_ns;
                "batch_ns_per_query", J.Float bat_ns;
                "speedup", J.Float speedup; "batch_qps", J.Float qps;
                "mults_per_query", J.Float mults_per_q ]
            :: !rows_out)
        batch_sizes;
      min_backend_speedup_k4 :=
        Float.min !min_backend_speedup_k4 !backend_best_k4)
    (Registry.all ());
  J.write ~path:out
    (J.Obj
       ([ ( "summary",
            J.Obj
              [ "min_backend_speedup_k4", J.Float !min_backend_speedup_k4;
                "best_speedup_k8", J.Float !best_speedup_k8;
                "byte_identical", J.Bool true; "trials", J.Int trials ] );
          "rows", J.List (List.rev !rows_out) ]
        @ J.gc_fields (Counters.gc_delta ~since:gc0)));
  Format.printf
    "@.  Wrote %s.  Worst backend's best k>=4 amortisation %.2fx;@." out
    !min_backend_speedup_k4;
  Format.printf
    "  best k=8 amortisation %.2fx.  Every cell gated byte-identical@."
    !best_speedup_k8;
  Format.printf "  to sequential (bytes and counters) before timing.@.@."

(* make-check gate on batched serving: reads the summary block of the
   quick artifact and fails if any backend's batched respond has
   stopped paying for itself — each backend must at worst match its
   own sequential path at some batch size >= 4 (the floor sits 6%
   under parity because the modpow backends' batch path IS parity:
   fixed exponent, per-query moduli, zero cross-query arithmetic to
   share — so their honest speedup is 1.00 +- the ~5% noise of the
   toy-size quick cells; a real kernel regression measures 0.91 or
   worse), and the fused kernels must keep a real k = 8 amortisation
   win somewhere (in practice lwe's four-lane pane kernel, ~2x at
   full size). *)
let batch_guard ?(path = "BENCH_batch.quick.json") () =
  let speedup_floor = 0.94 and k8_floor = 1.1 in
  let s =
    match open_in_bin path with
    | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    | exception Sys_error _ ->
      Format.eprintf "batch-guard: %s missing (run `make bench-quick`)@." path;
      exit 2
  in
  let float_after key =
    let key = "\"" ^ key ^ "\"" in
    let kl = String.length key and sl = String.length s in
    let rec find i =
      if i + kl > sl then None
      else if String.sub s i kl = key then begin
        let j = ref (i + kl) in
        while
          !j < sl && (match s.[!j] with ' ' | ':' -> true | _ -> false)
        do
          incr j
        done;
        let st = !j in
        while
          !j < sl
          && (match s.[!j] with
             | '0' .. '9' | '.' | '-' | '+' | 'e' -> true
             | _ -> false)
        do
          incr j
        done;
        float_of_string_opt (String.sub s st (!j - st))
      end
      else find (i + 1)
    in
    find 0
  in
  let need key =
    match float_after key with
    | Some v -> v
    | None ->
      Format.eprintf "batch-guard: %s has no %s field@." path key;
      exit 2
  in
  let worst = need "min_backend_speedup_k4" in
  let k8 = need "best_speedup_k8" in
  let ok_worst = worst >= speedup_floor in
  let ok_k8 = k8 >= k8_floor in
  Format.printf
    "  batch-guard: worst backend's best k>=4 amortisation %.2fx (floor \
     %.2fx) %s@."
    worst speedup_floor
    (if ok_worst then "OK" else "FAIL");
  Format.printf "  batch-guard: best k=8 amortisation %.2fx (floor %.2fx) %s@."
    k8 k8_floor
    (if ok_k8 then "OK" else "FAIL");
  if not (ok_worst && ok_k8) then exit 1

(* ------------------------------------------------------------------ *)
(* update: incremental CRT re-encode vs full rebuild                    *)
(* ------------------------------------------------------------------ *)

(* The streaming-update pipeline head-to-head with the rebuild it
   replaces, at the CRT core and across the backend arena.

   Byte-identity gates run before any timing:
   - Gr core: after a burst of single-block updates through the
     retained product tree, the server's respond must equal a fresh
     server CRT-encoded over the updated records, on the same
     phi-hiding queries.
   - every backend implementing [update]: an updated instance must be
     wire-identical (query bytes, response bytes, decoded block) to a
     fresh encode over the updated block grid under the same encode
     randomness.

   Then the costs: one incremental [Gr.Server.update_block]
   (root-to-leaf tree fix-up + cached-schedule refresh) vs one full
   [Gr.Server.create] (full product-tree build with its Bezout
   inversions, solve, recode), plus per-backend in-place patch vs
   re-encode.  The JSON summary's "min_speedup" is the worst gr-core
   rebuild/update ratio across grids; the full bench demands
   [speedup_floor] (default 10x) and [update_guard] (make check) gates
   the quick artifact at 5x.  Emits BENCH_update.json. *)
let update_bench ?(out = "BENCH_update.json")
    ?(grids = [ (8, 8, 512); (15, 15, 1024) ]) ?(q_bits = 64)
    ?(speedup_floor = 10.) trials =
  let module Pb = Lbq_pir_backend.Backend_intf in
  let module Registry = Lbq_pir_backend.Registry in
  let module Instance = Registry.Instance in
  Format.printf
    "=== update: incremental CRT fix-up vs full rebuild (%d trials) ===@.@."
    trials;
  let gc0 = Counters.gc_words () in
  let reps = max 3 trials in
  let rows_out = ref [] in
  let min_speedup = ref infinity in
  Format.printf "  %-16s | %-12s | %-12s | %-8s | %s@." "grid" "rebuild (s)"
    "update (s)" "speedup" "backend patch vs re-encode";
  Format.printf "  %s@." (String.make 100 '-');
  List.iter
    (fun (rows, cols, block_bits) ->
      let count = rows * cols in
      let drbg =
        Drbg.create ~seed:(Printf.sprintf "bench-update-%d" count) ()
      in
      let rand = Drbg.rand drbg in
      let plan = Gr.make_plan ~count ~block_bits () in
      let record i =
        Z.erem (Z.random_bits ~bits:block_bits rand) (Gr.plan_slot plan i).Gr.pi
      in
      let records = Array.init count record in
      let server = Gr.Server.create plan records in
      (* Identity gate: a burst of tree fix-ups, then fresh-encode
         oracle agreement on shared queries — all before any timing. *)
      let burst = 2 * reps in
      for _ = 1 to burst do
        let idx = Drbg.int drbg count in
        let b = record idx in
        records.(idx) <- b;
        Gr.Server.update_block server ~idx ~block:b
      done;
      assert (Gr.Server.epoch server = burst);
      let fresh = Gr.Server.create plan records in
      let qdrbg =
        Drbg.create ~seed:(Printf.sprintf "bench-update-gate-%d" count) ()
      in
      for _ = 1 to 3 do
        let index = Drbg.int qdrbg count in
        let _st, (n, g) =
          Gr.Client.query ~plan ~index ~q_bits (Drbg.rand qdrbg)
        in
        assert (
          Z.equal (Gr.Server.respond server ~n ~g)
            (Gr.Server.respond fresh ~n ~g))
      done;
      (* Timing: full rebuild vs one localized fix-up (min of trials). *)
      let rebuild_s = ref infinity in
      for _ = 1 to max 2 (reps / 2) do
        let _, s = time (fun () -> Gr.Server.create plan records) in
        rebuild_s := Float.min !rebuild_s s
      done;
      let update_s = ref infinity in
      for _ = 1 to reps do
        let idx = Drbg.int drbg count in
        let b = record idx in
        records.(idx) <- b;
        let (), s =
          time (fun () -> Gr.Server.update_block server ~idx ~block:b)
        in
        update_s := Float.min !update_s s
      done;
      let speedup = !rebuild_s /. !update_s in
      min_speedup := Float.min !min_speedup speedup;
      (* Backend arena: wire-identity gate, then patch vs re-encode for
         every backend with the update capability.  Encode randomness is
         content-independent in all registered backends, so re-seeding
         the same encode DRBG gives the fresh-encode oracle identical
         parameters. *)
      let len = max 16 (block_bits / 8) in
      let blocks =
        Array.init rows (fun r ->
            Array.init cols (fun c ->
                String.init len (fun k ->
                    Char.chr (((r * 131) + (c * 29) + (k * 7)) land 0xff))))
      in
      let backend_cells =
        List.filter_map
          (fun backend ->
            let module M = (val backend : Pb.S) in
            let enc_seed =
              Printf.sprintf "bench-update-enc-%s-%d" M.name count
            in
            let encode () =
              Instance.create
                ~rand:(Drbg.rand (Drbg.create ~seed:enc_seed ()))
                backend blocks
            in
            let inst = encode () in
            if not (Instance.can_update inst) then None
            else begin
              let patch_s = ref infinity in
              for i = 1 to reps do
                let r = Drbg.int drbg rows and c = Drbg.int drbg cols in
                let b =
                  String.init len (fun k ->
                      Char.chr (((i * 37) + (k * 11) + r + c) land 0xff))
                in
                blocks.(r).(c) <- b;
                let ok, s =
                  time (fun () -> Instance.update inst ~row:r ~col:c ~block:b)
                in
                assert ok;
                patch_s := Float.min !patch_s s
              done;
              let oracle = encode () in
              for i = 1 to 2 do
                let r = Drbg.int drbg rows and c = Drbg.int drbg cols in
                let fetch inst' =
                  Instance.fetch
                    ~rand:
                      (Drbg.rand
                         (Drbg.create
                            ~seed:
                              (Printf.sprintf "bench-update-q-%s-%d-%d" M.name
                                 count i)
                            ()))
                    ~row:r ~col:c inst'
                in
                let a = fetch inst and b = fetch oracle in
                assert (
                  String.equal a.Instance.query_wire b.Instance.query_wire);
                assert (
                  String.equal a.Instance.response_wire
                    b.Instance.response_wire);
                assert (String.equal a.Instance.block blocks.(r).(c));
                assert (String.equal b.Instance.block blocks.(r).(c))
              done;
              let reencode_s = ref infinity in
              for _ = 1 to max 2 (reps / 2) do
                let _, s = time (fun () -> encode ()) in
                reencode_s := Float.min !reencode_s s
              done;
              Some (M.name, !patch_s, !reencode_s)
            end)
          (Registry.all ())
      in
      Format.printf "  %3dx%-3d %5db | %12.6f | %12.6f | %7.1fx | %s@." rows
        cols block_bits !rebuild_s !update_s speedup
        (String.concat ", "
           (List.map
              (fun (n, p, r) -> Printf.sprintf "%s %.0fx" n (r /. p))
              backend_cells));
      rows_out :=
        J.Obj
          [ "rows", J.Int rows; "cols", J.Int cols;
            "block_bits", J.Int block_bits;
            "rebuild_s", J.Float !rebuild_s; "update_s", J.Float !update_s;
            "speedup", J.Float speedup;
            ( "backends",
              J.List
                (List.map
                   (fun (n, p, r) ->
                     J.Obj
                       [ "backend", J.Str n; "patch_s", J.Float p;
                         "reencode_s", J.Float r;
                         "speedup", J.Float (r /. p) ])
                   backend_cells) ) ]
        :: !rows_out)
    grids;
  J.write ~path:out
    (J.Obj
       ([ "grids", J.List (List.rev !rows_out);
          "min_speedup", J.Float !min_speedup;
          "speedup_floor", J.Float speedup_floor ]
        @ J.gc_fields (Counters.gc_delta ~since:gc0)));
  let ok = !min_speedup >= speedup_floor in
  Format.printf
    "@.  Wrote %s.  Identity gates passed; worst incremental speedup %.1fx \
     (floor %.1fx) %s@.@."
    out !min_speedup speedup_floor
    (if ok then "OK" else "FAIL");
  if not ok then exit 1

(* update-guard: re-reads the "min_speedup" summary of the quick
   artifact (written by `quick` moments earlier in `make check`, after
   its byte-identity gates) and fails the build if the incremental
   fix-up has stopped beating the full rebuild by at least 5x even at
   quick's toy grids.  The full BENCH_update.json targets >= 10x at the
   default bench grid. *)
let update_guard ?(path = "BENCH_update.quick.json") () =
  let floor = 5. in
  let s =
    match open_in_bin path with
    | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    | exception Sys_error _ ->
      Format.eprintf "update-guard: %s missing (run `make bench-quick`)@."
        path;
      exit 2
  in
  let float_after key =
    let key = "\"" ^ key ^ "\"" in
    let kl = String.length key and sl = String.length s in
    let rec find i =
      if i + kl > sl then None
      else if String.sub s i kl = key then begin
        let j = ref (i + kl) in
        while
          !j < sl && (match s.[!j] with ' ' | ':' -> true | _ -> false)
        do
          incr j
        done;
        let st = !j in
        while
          !j < sl
          && (match s.[!j] with
             | '0' .. '9' | '.' | '-' | '+' | 'e' -> true
             | _ -> false)
        do
          incr j
        done;
        float_of_string_opt (String.sub s st (!j - st))
      end
      else find (i + 1)
    in
    find 0
  in
  let v =
    match float_after "min_speedup" with
    | Some v -> v
    | None ->
      Format.eprintf "update-guard: %s has no min_speedup field@." path;
      exit 2
  in
  let ok = v >= floor in
  Format.printf
    "  update-guard: min incremental speedup %.2fx (floor %.1fx) %s@." v floor
    (if ok then "OK" else "FAIL");
  if not ok then exit 1

(* ------------------------------------------------------------------ *)
(* quick: tiny-parameter smoke of every JSON-emitting suite             *)
(* ------------------------------------------------------------------ *)

(* Same code paths as faults/pir/ot/keypool, toy sizes, *.quick.json
   artifacts.  `make check` runs this (via `make bench-quick`) so the
   JSON emitters and the bench-level assertions stay exercised without
   paper-scale run times. *)
let quick trials =
  powm_bench ~out:"BENCH_powm.quick.json" ~sizes:[ 512; 1024 ] ~powm_iters:2
    ~kernel_iters:200 trials;
  faults ~out:"BENCH_faults.quick.json" ~rates:[ 0.; 0.1 ] trials;
  pir ~out:"BENCH_pir.quick.json" ~count:16 ~block_bits:256 ~q_bits:48 trials;
  ot ~out:"BENCH_ot.quick.json" ~group:(Schnorr.test_group ()) ~n:8
    ~sweep_grids:[ 4; 8 ] ~search_q_bits:48 trials;
  keypool ~out:"BENCH_keypool.quick.json" ~count:4 ~block_bits:192 ~q_bits:32
    ~sweep_capacities:[ 1 ] ~sweep_workers:[ 1; 2 ] trials;
  backends_bench ~out:"BENCH_backends.quick.json" ~grids:[ (2, 3, 8) ] trials;
  batch_bench ~out:"BENCH_batch.quick.json" ~rows:4 ~cols:4 ~len:16
    ~lwe_grid:(4, 256, 32) ~batch_sizes:[ 1; 4; 8 ] (max 2 trials);
  update_bench ~out:"BENCH_update.quick.json" ~grids:[ (6, 6, 512) ]
    ~q_bits:48 ~speedup_floor:5. (max 2 trials);
  serve ~out:"BENCH_serve.quick.json" ~clients:[ 1; 4 ] ~domains:[ 1; 4 ]
    ~queue_depths:[ 64 ] ~loss_ps:[ 0.2 ] (max 3 trials)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                            *)
(* ------------------------------------------------------------------ *)

let micro _trials =
  Format.printf "=== Bechamel micro-benchmarks (hot primitives) ===@.@.";
  let open Bechamel in
  let drbg = Drbg.create ~seed:"bench-micro" () in
  let rand = Drbg.rand drbg in
  let group = Schnorr.paper_group () in
  let p = Schnorr.p group in
  let ctx = Schnorr.ctx group in
  let a = Z.erem (Z.random_bits ~bits:1024 rand) p in
  let e160 = Z.random_bits ~bits:160 rand in
  let an = Z.to_nat a in
  let msg = Drbg.bytes drbg 1024 in
  let tests =
    [ Test.make ~name:"mulmod-1024" (Staged.stage (fun () ->
          ignore (Barrett.mulmod_nat ctx an an)));
      Test.make ~name:"powm-1024/160" (Staged.stage (fun () ->
          ignore (Barrett.powm ctx a e160)));
      Test.make ~name:"sha1-1KiB" (Staged.stage (fun () ->
          ignore (Lbq_crypto.Sha1.digest msg)));
      Test.make ~name:"ot-query" (Staged.stage (fun () ->
          ignore (Ot.Client.query ~group ~rand ~i:7 ~j:9 ())));
    ]
  in
  List.iter
    (fun test ->
      let instance = Toolkit.Instance.monotonic_clock in
      let cfg =
        Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~kde:(Some 100) ()
      in
      let raw = Benchmark.all cfg [ instance ] test in
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          instance raw
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Format.printf "  %-16s %12.1f ns/op@." name est
          | _ -> Format.printf "  %-16s (no estimate)@." name)
        results)
    tests;
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let () =
  let cmd, trials =
    match Array.to_list Sys.argv with
    | _ :: c :: t :: _ -> c, int_of_string t
    | [ _; c ] -> c, 10
    | _ -> "all", 5
  in
  match cmd with
  | "table1" -> table1 trials
  | "table2" -> table2 trials
  | "table3" -> table3 trials
  | "table4" -> table4 trials
  | "ablate-grid" -> ablate_grid trials
  | "ablate-block" -> ablate_block trials
  | "ablate-modsize" -> ablate_modsize trials
  | "ablate-mulengine" -> ablate_mulengine trials
  | "ablate-reuse" -> ablate_reuse trials
  | "ablate-network" -> ablate_network trials
  | "throughput" -> throughput trials
  | "comms" -> comms trials
  | "faults" -> faults trials
  | "powm" -> powm_bench trials
  | "powm-guard" -> powm_guard ()
  | "serve" -> serve trials
  | "serve-guard" -> serve_guard ()
  | "pir" -> pir trials
  | "ot" -> ot trials
  | "keypool" -> keypool trials
  | "backends" -> backends_bench trials
  | "batch" -> batch_bench trials
  | "batch-guard" -> batch_guard ()
  | "update" -> update_bench trials
  | "update-guard" -> update_guard ()
  | "quick" -> quick trials
  | "micro" -> micro trials
  | "all" ->
    table1 trials;
    table2 trials;
    table3 trials;
    table4 (max 3 (trials / 2));
    ablate_grid (max 3 (trials / 2));
    ablate_block (max 2 (trials / 3));
    ablate_modsize (max 3 (trials / 2));
    ablate_mulengine (max 2 (trials / 2));
    ablate_reuse (max 3 (trials / 2));
    ablate_network (max 2 (trials / 2));
    throughput (max 8 trials);
    comms trials;
    faults (max 2 (trials / 2));
    powm_bench (max 2 (trials / 2));
    pir (max 2 (trials / 2));
    ot (max 2 (trials / 2));
    keypool (max 2 (trials / 2));
    backends_bench (max 2 (trials / 2));
    batch_bench (max 2 (trials / 2));
    update_bench (max 2 (trials / 2));
    serve (max 4 (trials / 2));
    micro trials
  | other ->
    Format.eprintf
      "unknown command %S (try table1..table4, ablate-grid, ablate-block, ablate-modsize, ablate-mulengine, ablate-reuse, comms, faults, powm, powm-guard, pir, ot, keypool, backends, batch, batch-guard, update, update-guard, quick, micro, all)@."
      other;
    exit 2
