(* Tests for the background phi-hiding instance pool (lib/cache/keypool.ml)
   and the Drbg.split contract it builds on: property tests for stream
   independence, refill determinism against the sequential reference
   oracle under any worker count and interleaving, and pool mechanics
   (hit/miss/steal counters, one build per generation, capacity,
   shutdown). *)

open Lbq_bignum
module Keypool = Lbq_cache.Keypool
module Gr = Lbq_pir.Gr
module Drbg = Lbq_crypto.Drbg
module Counters = Lbq_metrics.Counters

let prop name ?(count = 50) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* ------------------------------------------------------------------ *)
(* Drbg.split stream independence                                       *)
(* ------------------------------------------------------------------ *)

let arb_label =
  QCheck.string_of_size (QCheck.Gen.int_range 1 40)

let prop_split_distinct_labels =
  prop "distinct labels give independent streams"
    (QCheck.pair arb_label arb_label)
    (fun (a, b) ->
      QCheck.assume (not (String.equal a b));
      let root = Drbg.create ~seed:"split-prop" () in
      let da = Drbg.split root ~label:a in
      let db = Drbg.split root ~label:b in
      not (String.equal (Drbg.bytes da 64) (Drbg.bytes db 64)))

let prop_split_reproducible =
  prop "same (seed, label) replays the same stream" arb_label (fun label ->
      let mk () = Drbg.split (Drbg.create ~seed:"split-repro" ()) ~label in
      String.equal (Drbg.bytes (mk ()) 128) (Drbg.bytes (mk ()) 128))

let prop_split_leaves_parent_untouched =
  (* Forking reads only the parent's immutable key: the parent's stream
     must be the same whether or not a child was split off and drained.
     The keypool leans on this — refill workers fork from the shared
     base generator with no synchronisation. *)
  prop "split does not disturb the parent stream" arb_label (fun label ->
      let plain = Drbg.create ~seed:"split-parent" () in
      let forked = Drbg.create ~seed:"split-parent" () in
      let child = Drbg.split forked ~label in
      ignore (Drbg.bytes child 32);
      String.equal (Drbg.bytes plain 64) (Drbg.bytes forked 64))

let prop_split_differs_from_parent =
  prop "child stream differs from the parent's" arb_label (fun label ->
      let root = Drbg.create ~seed:"split-vs-parent" () in
      let child = Drbg.split root ~label in
      not (String.equal (Drbg.bytes root 64) (Drbg.bytes child 64)))

(* ------------------------------------------------------------------ *)
(* Keypool fixture: a small plan so instance builds are milliseconds   *)
(* ------------------------------------------------------------------ *)

let plan = Gr.make_plan ~count:4 ~block_bits:96 ()
let cells = Gr.plan_size plan
let q_bits = 32

let wire_equal (n, g) (n', g') = Z.equal n n' && Z.equal g g'

let check_wire msg a b = Alcotest.(check bool) msg true (wire_equal a b)

let reference ~seed ~index ~generation =
  snd (Lbq_oracle.Keypool_build.build ~seed ~plan ~q_bits ~index ~generation ())

(* ------------------------------------------------------------------ *)
(* Refill determinism                                                   *)
(* ------------------------------------------------------------------ *)

let test_refill_matches_reference_any_workers () =
  (* Prewarmed with 0 (inline), 1 and 3 workers, every (index,
     generation) must be byte-identical to the sequential oracle:
     worker scheduling cannot leak into the instances. *)
  let seed = "cache-workers" in
  let gens = 2 in
  let takes domains =
    let run pool =
      Keypool.prewarm pool;
      List.init cells (fun index ->
          List.init gens (fun _ -> snd (Keypool.take pool ~index)))
      |> List.concat
    in
    match domains with
    | 0 ->
      Keypool.with_pool
        ~config:{ Keypool.capacity = gens; low_watermark = 0 }
        ~seed ~plan ~q_bits run
    | d ->
      Keypool.with_pool
        ~config:{ Keypool.capacity = gens; low_watermark = 0 }
        ~domains:d ~seed ~plan ~q_bits run
  in
  let expect =
    List.init cells (fun index ->
        List.init gens (fun generation -> reference ~seed ~index ~generation))
    |> List.concat
  in
  List.iter
    (fun domains ->
      List.iteri
        (fun k got ->
          check_wire
            (Printf.sprintf "instance %d with %d worker(s)" k domains)
            got (List.nth expect k))
        (takes domains))
    [ 0; 1; 3 ]

let test_generations_are_fresh () =
  (* Successive generations of one stripe are distinct instances —
     pooled rounds stay unlinkable because every take ships a fresh
     modulus. *)
  let seed = "cache-fresh" in
  let n0, _ = reference ~seed ~index:0 ~generation:0 in
  let n1, _ = reference ~seed ~index:0 ~generation:1 in
  Alcotest.(check bool) "moduli differ across generations" false
    (Z.equal n0 n1)

let test_interleaved_takes_match_reference () =
  (* No prewarm and a live background refill: takes race worker builds
     and foreground steals in whatever order the scheduler produces,
     yet the k-th take on a stripe must always be that stripe's k-th
     reference instance. *)
  let seed = "cache-interleave" in
  Keypool.with_pool
    ~config:{ Keypool.capacity = 2; low_watermark = 1 }
    ~domains:2 ~seed ~plan ~q_bits
    (fun pool ->
      let generations = Array.make cells 0 in
      for k = 0 to (3 * cells) - 1 do
        let index = k * 7 mod cells in
        let generation = generations.(index) in
        generations.(index) <- generation + 1;
        let got = snd (Keypool.take pool ~index) in
        check_wire
          (Printf.sprintf "take %d (index %d, generation %d)" k index
             generation)
          got
          (reference ~seed ~index ~generation)
      done)

(* ------------------------------------------------------------------ *)
(* Pool mechanics                                                       *)
(* ------------------------------------------------------------------ *)

let test_cold_take_counts_miss_and_steal () =
  let seed = "cache-cold" in
  let metrics = Counters.create () in
  Keypool.with_pool ~metrics ~seed ~plan ~q_bits (fun pool ->
      (* No workers, no prewarm: the foreground claims the generation-0
         ticket and builds it synchronously. *)
      let got = snd (Keypool.take pool ~index:1) in
      check_wire "cold take = reference" got
        (reference ~seed ~index:1 ~generation:0);
      let c = Counters.snapshot metrics in
      Alcotest.(check int) "hits" 0 c.Counters.pool_hits;
      Alcotest.(check int) "misses" 1 c.Counters.pool_misses;
      Alcotest.(check int) "steals" 1 c.Counters.pool_steals)

let test_take_waits_for_inflight_build () =
  (* One worker, capacity 3, no prewarm.  The first take steals stripe
     0's generation 0, and its refill sweep queues stripe 0's
     generations 1-3 and every other stripe's 0-2 on the single worker.
     The take on the last stripe then finds generation 0's ticket
     claimed but not yet built: it must wait for the worker's copy, not
     build the same bytes a second time.  Every build ticks the
     prime-search counters, which are a pure function of (seed, index,
     generation), so the pool's totals must equal the oracle's over
     exactly the generations built (taken or still stored). *)
  let seed = "cache-inflight" in
  let last = cells - 1 in
  let metrics = Counters.create () in
  let taken, depth =
    Keypool.with_pool ~metrics
      ~config:{ Keypool.capacity = 3; low_watermark = 0 }
      ~domains:1 ~seed ~plan ~q_bits
      (fun pool ->
        let first = snd (Keypool.take pool ~index:0) in
        let second = snd (Keypool.take pool ~index:last) in
        Keypool.drain pool;
        ([ (0, first); (last, second) ], Keypool.depth pool))
  in
  List.iter
    (fun (index, got) ->
      check_wire
        (Printf.sprintf "stripe %d generation 0 = reference" index)
        got
        (reference ~seed ~index ~generation:0))
    taken;
  Alcotest.(check int) "only the first take steals" 1
    (Counters.snapshot metrics).Counters.pool_steals;
  let expect = Counters.create () in
  for index = 0 to cells - 1 do
    let built =
      depth.(index) + if List.mem_assoc index taken then 1 else 0
    in
    for generation = 0 to built - 1 do
      ignore
        (Lbq_oracle.Keypool_build.build ~metrics:expect ~seed ~plan ~q_bits
           ~index ~generation ())
    done
  done;
  let got = Counters.snapshot metrics and want = Counters.snapshot expect in
  Alcotest.(check int) "prime attempts: one build per generation"
    want.Counters.prime_attempts got.Counters.prime_attempts;
  Alcotest.(check int) "MR calls: one build per generation"
    want.Counters.mr_calls got.Counters.mr_calls

let test_prewarm_hit_and_depth () =
  let metrics = Counters.create () in
  Keypool.with_pool ~metrics
    ~config:{ Keypool.capacity = 1; low_watermark = 0 }
    ~seed:"cache-warm" ~plan ~q_bits
    (fun pool ->
      Keypool.prewarm pool;
      let refills () = (Counters.snapshot metrics).Counters.pool_refills in
      Alcotest.(check (array int))
        "depth at capacity after prewarm"
        (Array.make cells 1) (Keypool.depth pool);
      Alcotest.(check int) "one refill per stripe" cells (refills ());
      (* Idempotent: a second prewarm builds nothing. *)
      Keypool.prewarm pool;
      Alcotest.(check int) "prewarm idempotent" cells (refills ());
      ignore (Keypool.take pool ~index:0);
      let c = Counters.snapshot metrics in
      Alcotest.(check int) "warm take is a hit" 1 c.Counters.pool_hits;
      Alcotest.(check int) "no miss" 0 c.Counters.pool_misses;
      Alcotest.(check int) "stripe drained" 0 (Keypool.depth pool).(0))

let test_errors_and_shutdown () =
  let pool = Keypool.create ~seed:"cache-errors" ~plan ~q_bits () in
  (match Keypool.take pool ~index:(-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative index must raise");
  (match Keypool.take pool ~index:cells with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range index must raise");
  Keypool.shutdown pool;
  Keypool.shutdown pool;
  (match Keypool.take pool ~index:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "take after shutdown must raise")

let test_with_pool_cleans_up () =
  let escaped = Keypool.with_pool ~seed:"cache-escape" ~plan ~q_bits Fun.id in
  match Keypool.take escaped ~index:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "with_pool must shut the pool down"

let () =
  Alcotest.run "lbq_cache"
    [ ("drbg-split",
       [ prop_split_distinct_labels; prop_split_reproducible;
         prop_split_leaves_parent_untouched; prop_split_differs_from_parent ]);
      ("determinism",
       [ Alcotest.test_case "prewarm = reference for any worker count" `Quick
           test_refill_matches_reference_any_workers;
         Alcotest.test_case "generations are fresh" `Quick
           test_generations_are_fresh;
         Alcotest.test_case "interleaved takes = reference" `Quick
           test_interleaved_takes_match_reference ]);
      ("mechanics",
       [ Alcotest.test_case "cold take: miss + steal" `Quick
           test_cold_take_counts_miss_and_steal;
         Alcotest.test_case "take waits for an in-flight build" `Quick
           test_take_waits_for_inflight_build;
         Alcotest.test_case "prewarm, hit and depth" `Quick
           test_prewarm_hit_and_depth;
         Alcotest.test_case "errors and shutdown" `Quick
           test_errors_and_shutdown;
         Alcotest.test_case "with_pool cleans up" `Quick
           test_with_pool_cleans_up ]) ]
