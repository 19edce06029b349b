(* End-to-end tests of the paper's protocol (lbq_core): full rounds over a
   synthetic city, correctness of the answers against the plaintext grid,
   content protection for the server (malicious-user scenarios), wire
   round-trips, and tamper handling. *)

open Lbq_bignum
open Lbq_geo
open Lbq_core
module Ot = Lbq_ot.Ot
module Counters = Lbq_metrics.Counters


let params = Params.test ()

let area =
  Coord.Rect.make ~min:(Coord.make ~x:0. ~y:0.)
    ~max:(Coord.make ~x:3000. ~y:3000.)

(* One or two POIs per private cell (3x3 over 3000x3000, cells 1000 wide)
   so every cell respects the paper-style rmax = 2. *)
let pois =
  List.concat
    (List.init 9 (fun idx ->
         let row = idx / 3 and col = idx mod 3 in
         let base_x = (float_of_int col *. 1000.) +. 200. in
         let base_y = (float_of_int row *. 1000.) +. 300. in
         let first =
           Poi.make ~id:(2 * idx)
             ~position:(Coord.make ~x:base_x ~y:base_y)
             ~category:"cafe" ~name:(Printf.sprintf "cafe-%02d" idx)
         in
         if idx mod 2 = 0 then
           [ first;
             Poi.make ~id:((2 * idx) + 1)
               ~position:(Coord.make ~x:(base_x +. 400.) ~y:(base_y +. 150.))
               ~category:"atm" ~name:(Printf.sprintf "atm-%02d" idx) ]
         else [ first ]))

let server = Server.create params ~area pois
let public = Server.public_info server
let client = Client.create public

let poit = Alcotest.testable Poi.pp Poi.equal

(* The ground truth for a position: real POIs of the private cell under
   the public cell containing it. *)
let expected_pois position =
  let cell = Grid.cell_of_coord public.Server.public_grid position in
  let idq = Grid.associate public.Server.public_grid (Server.partition server) cell in
  Server.trusted_cell_pois server idq
  |> List.filter (fun p -> not (Poi.is_dummy p))

(* ------------------------------------------------------------------ *)
(* Full rounds                                                          *)
(* ------------------------------------------------------------------ *)

let test_round_correctness () =
  let positions =
    [ Coord.make ~x:10. ~y:10.; Coord.make ~x:1500. ~y:1500.;
      Coord.make ~x:2999. ~y:42.; Coord.make ~x:700. ~y:2200. ]
  in
  List.iter
    (fun position ->
      let result = Protocol.run_round client server ~position in
      Alcotest.(check (list poit))
        (Format.asprintf "%a" Coord.pp position)
        (expected_pois position) result.Protocol.pois)
    positions

let test_round_every_public_cell () =
  (* Exhaustive over the 6x6 public grid. *)
  for row = 0 to params.Params.public_rows - 1 do
    for col = 0 to params.Params.public_cols - 1 do
      let position =
        Grid.cell_center public.Server.public_grid { Grid.row; col }
      in
      let result = Protocol.run_round client server ~position in
      Alcotest.(check (list poit))
        (Printf.sprintf "cell (%d,%d)" row col)
        (expected_pois position) result.Protocol.pois
    done
  done

let test_transcript_shape () =
  let result =
    Protocol.run_round client server ~position:(Coord.make ~x:1000. ~y:1000.)
  in
  let tr = result.Protocol.transcript in
  Alcotest.(check int) "four messages" 4 (List.length tr);
  (* Message sizes: OT query = 4L, OT response = 8 + 2(m+n)L. *)
  let l = Ot.element_len params.Params.group in
  let sizes = List.map (fun m -> m.Protocol.bytes) tr in
  (match sizes with
   | [ q1; r1; _q2; _r2 ] ->
     Alcotest.(check int) "OT query bytes" (4 * l) q1;
     Alcotest.(check int) "OT response bytes"
       (8 + (2 * (params.Params.public_rows + params.Params.public_cols) * l))
       r1
   | _ -> Alcotest.fail "unexpected transcript");
  (* Directions alternate user/server. *)
  let dirs = List.map (fun m -> m.Protocol.direction) tr in
  Alcotest.(check bool) "directions" true
    (dirs = [ Protocol.User_to_server; Protocol.Server_to_user;
              Protocol.User_to_server; Protocol.Server_to_user ])

let test_repeated_rounds_same_setup () =
  (* §VI: "the user can execute several more rounds very efficiently"
     with the same initialisation. *)
  let p1 = Coord.make ~x:100. ~y:100. and p2 = Coord.make ~x:2900. ~y:2900. in
  let r1 = Protocol.run_round client server ~position:p1 in
  let r2 = Protocol.run_round client server ~position:p2 in
  let r1' = Protocol.run_round client server ~position:p1 in
  Alcotest.(check (list poit)) "round 1" (expected_pois p1) r1.Protocol.pois;
  Alcotest.(check (list poit)) "round 2" (expected_pois p2) r2.Protocol.pois;
  Alcotest.(check (list poit)) "round 1 repeat" (expected_pois p1) r1'.Protocol.pois

(* The pluggable backend arena re-serves the same encrypted cell
   database under every registered PIR scheme: each must return the
   same POIs as the canonical Gentry-Ramzan round, with its cost oracle
   matching the measured server counters through the full protocol. *)
let test_arena_backends_agree () =
  let arena =
    Arena.create ~metrics:(Counters.create ()) ~seed:"test-arena" server
  in
  Alcotest.(check (list string)) "registered backends" [ "gr"; "qr"; "lwe" ]
    (Arena.names arena);
  let drbg = Lbq_crypto.Drbg.create ~seed:"test-arena-round" () in
  let rand = Lbq_crypto.Drbg.rand drbg in
  List.iter
    (fun position ->
      List.iter
        (fun backend ->
          let pois, round =
            Arena.run_round ~backend arena client ~position ~rand
          in
          Alcotest.(check (list poit))
            (Format.asprintf "%s %a" backend Coord.pp position)
            (expected_pois position) pois;
          Alcotest.(check int) (backend ^ " cost oracle")
            round.Arena.Instance.predicted.Arena.B.server_mults
            round.Arena.Instance.measured_server_mults)
        (Arena.names arena))
    [ Coord.make ~x:10. ~y:10.; Coord.make ~x:2999. ~y:42. ]

let test_arena_unknown_backend () =
  let arena = Arena.create ~seed:"test-arena" server in
  Alcotest.check_raises "unknown backend"
    (Invalid_argument
       "Arena.instance: unknown backend \"rsa\" (have: gr, qr, lwe)")
    (fun () -> ignore (Arena.instance arena ~backend:"rsa"))

(* ------------------------------------------------------------------ *)
(* Content protection (server security, §IV-B)                          *)
(* ------------------------------------------------------------------ *)

let test_malicious_pir_other_cell () =
  (* A cheating user runs stage 1 honestly for her cell, then runs the
     PIR stage for a DIFFERENT cell.  She gets that cell's ciphertext but
     cannot decrypt it: the cell keys differ, so authentication fails. *)
  let position = Coord.make ~x:10. ~y:10. in
  let cell = Client.locate client position in
  let st1, q1 = Client.stage1_query client cell in
  let cred = Client.stage1_decode client st1 (Server.ot_respond server q1) in
  let honest_idq = Client.credential_idq cred in
  let other_idq = (honest_idq + 1) mod Params.private_cells params in
  (* Forge a credential pointing at another cell with the honest key. *)
  let forged =
    let st1f, q1f = Client.stage1_query client cell in
    ignore (st1f, q1f);
    (* Rebuild via the public decode path: craft using the stolen key. *)
    cred
  in
  ignore forged;
  let module G = Lbq_pir.Gr in
  let pir_st, (n, g) =
    G.Client.query ~plan:public.Server.plan ~index:other_idq
      ~q_bits:params.Params.q_bits
      (Lbq_crypto.Drbg.rand (Lbq_crypto.Drbg.create ~seed:"mal" ()))
  in
  let ge = Server.pir_respond server ~n ~g in
  let ci = G.Client.decode pir_st ge in
  (* The ciphertext is real data... *)
  let blob = Z.to_bytes_be_padded ci ~len:(Params.cell_cipher_bytes params) in
  (* ...but decrypting with the stage-1 key of the honest cell fails. *)
  (match Cellcrypt.decrypt ~cell_key:(Client.credential_key cred) blob with
   | exception Cellcrypt.Authentication_failure -> ()
   | _ -> Alcotest.fail "stolen block decrypted with wrong cell key");
  (* With the correct key (server-side check) it does decrypt. *)
  let ok =
    Cellcrypt.decrypt ~cell_key:(Server.trusted_cell_key server other_idq) blob
  in
  Alcotest.(check int) "block intact" (params.Params.rmax * Poi.encoded_size)
    (String.length ok)

let test_ot_single_credential_per_round () =
  (* From one OT round the user can decode only her own cell's payload:
     any other index yields a payload that fails to parse or names a
     wrong cell with an unusable key. *)
  let position = Coord.make ~x:1500. ~y:1500. in
  let cell = Client.locate client position in
  let st1, q1 = Client.stage1_query client cell in
  let resp = Server.ot_respond server q1 in
  let honest = Client.stage1_decode client st1 resp in
  let leaked = ref 0 in
  for i = 0 to params.Params.public_rows - 1 do
    for j = 0 to params.Params.public_cols - 1 do
      if not (i = cell.Grid.row && j = cell.Grid.col) then begin
        let payload =
          Ot.Client.decode_at st1 ~masked:public.Server.masked_table resp ~i ~j
        in
        match Server.decode_payload payload with
        | idq, key ->
          (* Parsing 20 random bytes can "succeed"; the key must then be
             wrong for that cell. *)
          if idq >= 0 && idq < Params.private_cells params
             && String.equal key (Server.trusted_cell_key server idq)
          then incr leaked
        | exception Invalid_argument _ -> ()
      end
    done
  done;
  Alcotest.(check int) "no credential leaked" 0 !leaked;
  (* Sanity: the honest decode matches the server's key table. *)
  Alcotest.(check string) "honest key correct"
    (Server.trusted_cell_key server (Client.credential_idq honest))
    (Client.credential_key honest)

let test_tampered_pir_response () =
  let position = Coord.make ~x:500. ~y:500. in
  let cell = Client.locate client position in
  let st1, q1 = Client.stage1_query client cell in
  let cred = Client.stage1_decode client st1 (Server.ot_respond server q1) in
  let st2, (n, g) = Client.stage2_query client cred in
  let ge = Server.pir_respond server ~n ~g in
  let tampered = Z.erem (Z.mul ge (Z.of_int 7)) n in
  (match Client.stage2_decode client st2 tampered with
   | exception Client.Protocol_error _ -> ()
   | _ -> Alcotest.fail "tampered response accepted")

(* ------------------------------------------------------------------ *)
(* Wire                                                                 *)
(* ------------------------------------------------------------------ *)

let test_wire_roundtrips () =
  let group = params.Params.group in
  let position = Coord.make ~x:123. ~y:456. in
  let cell = Client.locate client position in
  let st1, q1 = Client.stage1_query client cell in
  let q1' = Wire.ot_query_decode group (Wire.ot_query_encode group q1) in
  Alcotest.(check bool) "ot query" true
    (Z.equal q1.Ot.c1.Lbq_group.Elgamal.a q1'.Ot.c1.Lbq_group.Elgamal.a
     && Z.equal q1.Ot.c2.Lbq_group.Elgamal.b q1'.Ot.c2.Lbq_group.Elgamal.b);
  let resp = Server.ot_respond server q1 in
  let resp' = Wire.ot_response_decode group (Wire.ot_response_encode group resp) in
  Alcotest.(check int) "rows" (Array.length resp.Ot.rows) (Array.length resp'.Ot.rows);
  let u, v = resp.Ot.rows.(2) and u', v' = resp'.Ot.rows.(2) in
  Alcotest.(check bool) "row element" true (Z.equal u u' && Z.equal v v');
  (* Decoding via the wire still yields the credential. *)
  let cred = Client.stage1_decode client st1 resp' in
  let st2, pq = Client.stage2_query client cred in
  let pq' = Wire.pir_query_decode (Wire.pir_query_encode pq) in
  Alcotest.(check bool) "pir query" true
    (Z.equal (fst pq) (fst pq') && Z.equal (snd pq) (snd pq'));
  let n, g = pq' in
  let ge = Server.pir_respond server ~n ~g in
  let ge' = Wire.pir_response_decode (Wire.pir_response_encode ~n ge) in
  Alcotest.(check bool) "pir response" true (Z.equal ge ge');
  let pois = Client.stage2_decode client st2 ge' in
  Alcotest.(check (list poit)) "end to end via wire" (expected_pois position) pois

let test_wire_malformed () =
  let group = params.Params.group in
  Alcotest.(check bool) "short ot query" true
    (match Wire.ot_query_decode group "short" with
     | exception Wire.Malformed _ -> true
     | _ -> false);
  Alcotest.(check bool) "bad pir query" true
    (match Wire.pir_query_decode "\x00\x00\x10\x00abc" with
     | exception Wire.Malformed _ -> true
     | _ -> false);
  Alcotest.(check bool) "truncated ot response" true
    (match Wire.ot_response_decode group (String.make 12 '\x00') with
     | exception Wire.Malformed _ -> true
     | _ -> false)

(* ------------------------------------------------------------------ *)
(* Cellcrypt                                                            *)
(* ------------------------------------------------------------------ *)

let test_cellcrypt_roundtrip () =
  let key = String.init 16 Char.chr in
  let pt = String.init 200 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let ct = Cellcrypt.encrypt ~cell_key:key pt in
  Alcotest.(check int) "length" (String.length pt + Cellcrypt.tag_len)
    (String.length ct);
  Alcotest.(check string) "roundtrip" pt (Cellcrypt.decrypt ~cell_key:key ct)

let test_cellcrypt_failures () =
  let key = String.init 16 Char.chr in
  let ct = Cellcrypt.encrypt ~cell_key:key "hello world......" in
  let flip s i =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    Bytes.to_string b
  in
  (* Flip any byte: ciphertext or tag — both must fail. *)
  List.iter
    (fun i ->
      match Cellcrypt.decrypt ~cell_key:key (flip ct i) with
      | exception Cellcrypt.Authentication_failure -> ()
      | _ -> Alcotest.failf "tamper at byte %d accepted" i)
    [ 0; 5; String.length ct - 1 ];
  (* Wrong key fails. *)
  let key2 = String.make 16 'k' in
  (match Cellcrypt.decrypt ~cell_key:key2 ct with
   | exception Cellcrypt.Authentication_failure -> ()
   | _ -> Alcotest.fail "wrong key accepted")

(* ------------------------------------------------------------------ *)
(* PIR instance reuse (S VI repeated rounds)                            *)
(* ------------------------------------------------------------------ *)

let test_reuse_correct_and_cached () =
  let position = Coord.make ~x:2500. ~y:2500. in
  let client2 = Client.create ~seed:"reuser" public in
  let r1 = Protocol.run_round ~reuse:true client2 server ~position in
  let r2 = Protocol.run_round ~reuse:true client2 server ~position in
  Alcotest.(check (list poit)) "round 1" (expected_pois position) r1.Protocol.pois;
  Alcotest.(check (list poit)) "round 2" (expected_pois position) r2.Protocol.pois;
  (* The cached instance means both rounds send the same PIR query. *)
  let pir_query tr = (List.nth tr 2).Protocol.bytes in
  Alcotest.(check int) "same PIR query size"
    (pir_query r1.Protocol.transcript) (pir_query r2.Protocol.transcript);
  (* Without reuse, two same-cell rounds draw fresh moduli (unlinkable). *)
  let client3 = Client.create ~seed:"fresh" public in
  let cell = Client.locate client3 position in
  let st1, q1 = Client.stage1_query client3 cell in
  let cred = Client.stage1_decode client3 st1 (Server.ot_respond server q1) in
  let _, (n1, _) = Client.stage2_query client3 cred in
  let _, (n2, _) = Client.stage2_query client3 cred in
  Alcotest.(check bool) "fresh moduli differ" false (Z.equal n1 n2)

let test_reuse_cache_lru_eviction () =
  (* The reuse cache is bounded: with cache_cap = 2 and three distinct
     cells, the least-recently-used instance must be evicted, counted,
     and rebuilt (as a miss) when its cell comes back. *)
  let metrics = Counters.create () in
  let lru_client = Client.create ~metrics ~seed:"lru" ~cache_cap:2 public in
  let p1 = Coord.make ~x:500. ~y:500. in
  let p2 = Coord.make ~x:1500. ~y:1500. in
  let p3 = Coord.make ~x:2500. ~y:2500. in
  let round p =
    let r = Protocol.run_round ~reuse:true lru_client server ~position:p in
    Alcotest.(check (list poit)) "round answer" (expected_pois p)
      r.Protocol.pois
  in
  round p1;
  Alcotest.(check int) "one entry" 1 (Client.cache_size lru_client);
  round p2;
  Alcotest.(check int) "two entries" 2 (Client.cache_size lru_client);
  round p1;
  let snap = Counters.snapshot metrics in
  Alcotest.(check int) "repeat cell hits" 1 snap.Counters.cache_hits;
  Alcotest.(check int) "no eviction yet" 0 snap.Counters.cache_evictions;
  (* A third cell exceeds the cap; p2 is now least recently used. *)
  round p3;
  let snap = Counters.snapshot metrics in
  Alcotest.(check int) "cap respected" 2 (Client.cache_size lru_client);
  Alcotest.(check int) "one eviction" 1 snap.Counters.cache_evictions;
  Alcotest.(check int) "distinct cells missed" 3 snap.Counters.cache_misses;
  (* p1 was touched most recently before p3, so it survived; the evicted
     p2 misses again (and pushes out p3 in turn). *)
  round p1;
  round p2;
  let snap = Counters.snapshot metrics in
  Alcotest.(check int) "survivor still hits" 2 snap.Counters.cache_hits;
  Alcotest.(check int) "evicted cell misses again" 4 snap.Counters.cache_misses;
  Alcotest.(check int) "second eviction" 2 snap.Counters.cache_evictions;
  Alcotest.(check int) "still at cap" 2 (Client.cache_size lru_client);
  (* The cap itself is validated. *)
  match Client.create ~cache_cap:0 public with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cache_cap = 0 must be rejected"

(* ------------------------------------------------------------------ *)
(* Keypool-backed rounds (offline/online split)                         *)
(* ------------------------------------------------------------------ *)

let test_pooled_rounds_fresh_moduli () =
  (* Rounds drawing stage-2 instances from a keypool stay correct and
     unlinkable: consecutive same-cell rounds ship distinct moduli
     (successive pool generations), unlike reuse:true. *)
  let pool_client = Client.create ~seed:"pooler" public in
  let position = Coord.make ~x:2500. ~y:500. in
  Client.Keypool.with_pool ~seed:"core-pool" ~plan:public.Server.plan
    ~q_bits:params.Params.q_bits
    (fun pool ->
      let r1 = Protocol.run_round ~pool pool_client server ~position in
      let r2 = Protocol.run_round ~pool pool_client server ~position in
      Alcotest.(check (list poit)) "pooled round 1" (expected_pois position)
        r1.Protocol.pois;
      Alcotest.(check (list poit)) "pooled round 2" (expected_pois position)
        r2.Protocol.pois;
      let s = Client.Keypool.stats pool in
      (* No workers and no prewarm: both takes were cold steals. *)
      Alcotest.(check int) "cold takes" 2 s.Client.Keypool.misses;
      Alcotest.(check int) "built by the caller" 2 s.Client.Keypool.steals)

let test_pooled_round_rejects_mismatched_pool () =
  (* A pool built for another deployment (different q_bits) must be
     refused outright rather than silently producing weaker queries. *)
  Client.Keypool.with_pool ~seed:"core-pool-mismatch"
    ~plan:public.Server.plan
    ~q_bits:(params.Params.q_bits + 8)
    (fun pool ->
      match
        Protocol.run_round ~pool client server
          ~position:(Coord.make ~x:100. ~y:100.)
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "mismatched keypool must be rejected")

(* ------------------------------------------------------------------ *)
(* Wire fuzzing                                                         *)
(* ------------------------------------------------------------------ *)

(* Mutated protocol bytes must either parse (harmlessly) or raise
   [Wire.Malformed] - never crash with anything else. *)
let test_wire_fuzz () =
  let group = params.Params.group in
  let drbg = Lbq_crypto.Drbg.create ~seed:"fuzz" () in
  let position = Coord.make ~x:321. ~y:654. in
  let cell = Client.locate client position in
  let _, q1 = Client.stage1_query client cell in
  let resp = Server.ot_respond server q1 in
  let samples =
    [ (fun s -> ignore (Wire.ot_query_decode group s)),
      Wire.ot_query_encode group q1;
      (fun s -> ignore (Wire.ot_response_decode group s)),
      Wire.ot_response_encode group resp ]
  in
  List.iter
    (fun (decode, good) ->
      for _ = 1 to 200 do
        let b = Bytes.of_string good in
        (* Mutate 1-4 random bytes, sometimes truncate. *)
        let mutations = 1 + Lbq_crypto.Drbg.int drbg 4 in
        for _ = 1 to mutations do
          let i = Lbq_crypto.Drbg.int drbg (Bytes.length b) in
          Bytes.set b i (Char.chr (Lbq_crypto.Drbg.int drbg 256))
        done;
        let s =
          if Lbq_crypto.Drbg.int drbg 4 = 0 then
            Bytes.sub_string b 0 (Lbq_crypto.Drbg.int drbg (Bytes.length b))
          else Bytes.to_string b
        in
        match decode s with
        | () -> ()
        | exception Wire.Malformed _ -> ()
        | exception e ->
          Alcotest.failf "fuzz crash: %s" (Printexc.to_string e)
      done)
    samples

(* ------------------------------------------------------------------ *)
(* Paper-scale integration (Slow)                                       *)
(* ------------------------------------------------------------------ *)

(* One full round at the paper's exact parameters: 1024/160-bit group,
   25x25 public grid, 15x15 private grid, 128-bit PIR cofactors.  This is
   the configuration Tables III/IV were measured at; everything else in
   the suite runs at test scale for speed. *)
let test_paper_scale_round () =
  let params = Params.paper ~seed:"paper-scale-test" () in
  let side = 15_000. in
  let big_area =
    Coord.Rect.make ~min:(Coord.make ~x:0. ~y:0.)
      ~max:(Coord.make ~x:side ~y:side)
  in
  (* Up to rmax = 2 POIs per 1000 m private cell. *)
  let big_pois =
    List.concat
      (List.init (15 * 15) (fun idx ->
           let row = idx / 15 and col = idx mod 15 in
           let x = (float_of_int col *. 1000.) +. 400. in
           let y = (float_of_int row *. 1000.) +. 600. in
           if idx mod 3 = 0 then []
           else
             [ Poi.make ~id:idx ~position:(Coord.make ~x ~y) ~category:"atm"
                 ~name:(Printf.sprintf "atm-%03d" idx) ]))
  in
  let big_server = Server.create params ~area:big_area big_pois in
  let big_client = Client.create (Server.public_info big_server) in
  let position = Coord.make ~x:7_300. ~y:11_800. in
  let result = Protocol.run_round big_client big_server ~position in
  let cell =
    Grid.cell_of_coord (Server.public_info big_server).Server.public_grid
      position
  in
  let idq =
    Grid.associate (Server.public_info big_server).Server.public_grid
      (Server.partition big_server) cell
  in
  let expected =
    Server.trusted_cell_pois big_server idq
    |> List.filter (fun p -> not (Poi.is_dummy p))
  in
  Alcotest.(check (list poit)) "paper-scale round" expected result.Protocol.pois;
  (* The OT leg matches the paper's L = 1024 exactly: 4L = 512 B query. *)
  (match result.Protocol.transcript with
   | q1 :: r1 :: _ ->
     Alcotest.(check int) "OT query = 4L" 512 q1.Protocol.bytes;
     Alcotest.(check int) "OT response = 2(m+n)L + 8" ((2 * 50 * 128) + 8)
       r1.Protocol.bytes
   | _ -> Alcotest.fail "transcript shape")

(* ------------------------------------------------------------------ *)
(* Deployment: user-chosen cloaking regions                             *)
(* ------------------------------------------------------------------ *)

let deployment =
  Deployment.create ~base:params ~min_rows:4 ~min_cols:4 ~coverage:area pois

let test_deployment_register_and_round () =
  (* A user picks her own square CR and a grid above the minimum. *)
  let cr =
    Coord.Rect.square_around ~bound:area ~side:2000. (Coord.make ~x:800. ~y:900.)
  in
  let id, info = Deployment.register deployment ~cr ~rows:5 ~cols:5 in
  let duser = Client.create ~seed:"cr-user" info in
  let position = Coord.make ~x:800. ~y:900. in
  let result =
    Protocol.run_round duser (Deployment.instance deployment id) ~position
  in
  (* The answer must contain exactly the POIs of her private cell in the
     CR-local partition. *)
  let part = Server.partition (Deployment.instance deployment id) in
  let cell = Grid.cell_of_coord info.Server.public_grid position in
  let idq = Grid.associate info.Server.public_grid part cell in
  let expected =
    Grid.cell_pois part idq |> List.filter (fun p -> not (Poi.is_dummy p))
  in
  Alcotest.(check (list poit)) "round in CR instance" expected
    result.Protocol.pois;
  (* All POIs served live inside the CR. *)
  List.iter
    (fun p ->
      Alcotest.(check bool) "inside CR" true
        (Coord.Rect.contains cr (Poi.position p)))
    result.Protocol.pois

let test_deployment_two_users_independent () =
  let cr1 =
    Coord.Rect.square_around ~bound:area ~side:1500. (Coord.make ~x:500. ~y:500.)
  in
  let cr2 =
    Coord.Rect.square_around ~bound:area ~side:1500.
      (Coord.make ~x:2500. ~y:2500.)
  in
  let before = Deployment.instance_count deployment in
  let id1, info1 = Deployment.register deployment ~cr:cr1 ~rows:4 ~cols:4 in
  let id2, info2 = Deployment.register deployment ~cr:cr2 ~rows:6 ~cols:6 in
  Alcotest.(check int) "two instances" (before + 2)
    (Deployment.instance_count deployment);
  Alcotest.(check bool) "distinct ids" true (id1 <> id2);
  (* The masked tables are independent (different keys). *)
  Alcotest.(check bool) "independent tables" false
    (String.equal info1.Server.masked_table.(0).(0)
       info2.Server.masked_table.(0).(0));
  Deployment.retire deployment id1;
  Alcotest.(check int) "retired" (before + 1)
    (Deployment.instance_count deployment);
  (match Deployment.instance deployment id1 with
   | _ -> Alcotest.fail "retired instance still served"
   | exception Deployment.Rejected _ -> ())

let test_deployment_rejections () =
  (* Below the server minimum. *)
  (match Deployment.register deployment
           ~cr:(Coord.Rect.square_around ~bound:area ~side:1000.
                  (Coord.make ~x:500. ~y:500.))
           ~rows:2 ~cols:2 with
   | _ -> Alcotest.fail "under-minimum grid accepted"
   | exception Deployment.Rejected _ -> ());
  (* Outside the coverage. *)
  (match Deployment.register deployment
           ~cr:(Coord.Rect.make ~min:(Coord.make ~x:2000. ~y:2000.)
                  ~max:(Coord.make ~x:4000. ~y:4000.))
           ~rows:5 ~cols:5 with
   | _ -> Alcotest.fail "out-of-coverage CR accepted"
   | exception Deployment.Rejected _ -> ())

(* ------------------------------------------------------------------ *)
(* Queries: k-NN over the round primitive                               *)
(* ------------------------------------------------------------------ *)

let run_fn ~position = Protocol.run_round client server ~position

let global_knn ~k ~position = Nn.k_nearest ~k ~from:position pois

let test_knn_own_cell_sufficient () =
  (* Standing on top of a POI in the cell interior: one round, exact. *)
  let position = Coord.make ~x:210. ~y:310. in
  let r = Queries.k_nearest public run_fn ~k:1 ~position in
  Alcotest.(check int) "one round" 1 r.Queries.rounds;
  Alcotest.(check bool) "exact" true r.Queries.exact;
  Alcotest.(check (list poit)) "matches global"
    (global_knn ~k:1 ~position) r.Queries.pois

let test_knn_neighbor_cell_needed () =
  (* Near the cell border, with the true nearest POI across it. *)
  let position = Coord.make ~x:995. ~y:300. in
  let r = Queries.k_nearest public run_fn ~k:1 ~position in
  Alcotest.(check bool) "widened" true (r.Queries.rounds > 1);
  Alcotest.(check (list poit)) "matches global"
    (global_knn ~k:1 ~position) r.Queries.pois;
  (* The bare single-cell answer would have been wrong. *)
  let narrow = Queries.k_nearest ~widen:false public run_fn ~k:1 ~position in
  Alcotest.(check int) "narrow rounds" 1 narrow.Queries.rounds;
  Alcotest.(check bool) "narrow differs from global" false
    (List.equal Poi.equal narrow.Queries.pois (global_knn ~k:1 ~position))

let test_knn_exact_implies_global () =
  (* Wherever the result is certified exact, it equals the plaintext
     global answer. *)
  List.iter
    (fun (x, y, k) ->
      let position = Coord.make ~x ~y in
      let r = Queries.k_nearest public run_fn ~k ~position in
      if r.Queries.exact then
        Alcotest.(check (list poit))
          (Printf.sprintf "(%.0f,%.0f) k=%d" x y k)
          (global_knn ~k ~position) r.Queries.pois;
      Alcotest.(check bool) "never more than k" true
        (List.length r.Queries.pois <= k))
    [ 210., 310., 1; 1500., 1500., 2; 2600., 450., 1; 995., 300., 3;
      50., 2950., 2 ]

let test_knn_bad_k () =
  Alcotest.check_raises "k = 0" (Invalid_argument "Queries.k_nearest: k <= 0")
    (fun () ->
      ignore (Queries.k_nearest public run_fn ~k:0
                ~position:(Coord.make ~x:1. ~y:1.)))

(* ------------------------------------------------------------------ *)
(* Audit (equivocation detection)                                       *)
(* ------------------------------------------------------------------ *)

let test_audit_commit_verify () =
  let c = Audit.commit public in
  Alcotest.(check bool) "self verify" true (Audit.verify_info c public);
  (* A different seed produces different keys, a different masked table,
     and therefore a different root: equivocation is visible. *)
  let params2 = Params.test ~seed:"equivocation" () in
  let server2 = Server.create params2 ~area pois in
  let c2 = Audit.commit (Server.public_info server2) in
  Alcotest.(check bool) "different table, different root" false
    (String.equal c.Audit.root c2.Audit.root);
  Alcotest.(check bool) "cross verify fails" false
    (Audit.verify_info c (Server.public_info server2))

let test_audit_cell_proofs () =
  let c = Audit.commit public in
  for row = 0 to params.Params.public_rows - 1 do
    for col = 0 to params.Params.public_cols - 1 do
      let proof = Audit.prove_cell public ~row ~col in
      if not (Audit.verify_cell c ~row ~col proof) then
        Alcotest.failf "cell (%d,%d) proof failed" row col
    done
  done;
  (* Position binding: a valid proof for (0,0) must not verify as (1,1). *)
  let proof = Audit.prove_cell public ~row:0 ~col:0 in
  Alcotest.(check bool) "position binding" false
    (Audit.verify_cell c ~row:1 ~col:1 proof);
  (* A proof from a different server's table must not verify. *)
  let server2 =
    Server.create (Params.test ~seed:"other" ()) ~area pois
  in
  let foreign = Audit.prove_cell (Server.public_info server2) ~row:0 ~col:0 in
  Alcotest.(check bool) "foreign proof" false
    (Audit.verify_cell c ~row:0 ~col:0 foreign)

(* ------------------------------------------------------------------ *)
(* Server-side request validation (adversarial inputs)                  *)
(* ------------------------------------------------------------------ *)

(* Hostile queries at the checked handlers: each one must come back as
   the right typed rejection with the server's [rejects] counter bumped,
   and a good query must still succeed afterwards. *)
let test_server_validation_rejections () =
  let metrics = Lbq_metrics.Counters.create () in
  let vserver = Server.create ~metrics params ~area pois in
  let vclient = Client.create (Server.public_info vserver) in
  (* A legitimate round's worth of material to mutate. *)
  let cell = Client.locate vclient (Coord.make ~x:10. ~y:10.) in
  let st1, q1 = Client.stage1_query vclient cell in
  let cred =
    Client.stage1_decode vclient st1 (Server.ot_respond vserver q1)
  in
  let _st2, (n, g) = Client.stage2_query vclient cred in
  let expected = ref 0 in
  let expect_reject name check res =
    incr expected;
    (match res with
     | Ok _ -> Alcotest.failf "%s accepted" name
     | Error r ->
       Alcotest.(check bool) (name ^ ": constructor") true (check r);
       Alcotest.(check bool) (name ^ ": message nonempty") true
         (String.length (Server.rejection_message r) > 0));
    Alcotest.(check int) (name ^ ": rejects counter") !expected
      (Server.rejects vserver)
  in
  let oversized = function Server.Pir_modulus_oversized _ -> true | _ -> false in
  let undersized = function Server.Pir_modulus_undersized _ -> true | _ -> false in
  let pir_malformed = function Server.Pir_query_malformed _ -> true | _ -> false in
  let degenerate = function Server.Pir_base_degenerate _ -> true | _ -> false in
  let ot_malformed = function Server.Ot_query_malformed _ -> true | _ -> false in
  (* Every hostile (N, g) goes through both stage-2 entry points: the
     single-query handler, and the batched shard handler between two
     honest queries — positional results, the same constructor, one
     reject per hostile query, honest neighbours answered in full. *)
  let shard = (Server.pir_shards vserver ~count:1).(0) in
  let honest = Server.pir_respond vserver ~n ~g in
  let expect_pir_reject name check (bad_n, bad_g) =
    expect_reject name check
      (Server.pir_respond_checked vserver ~n:bad_n ~g:bad_g);
    let replies =
      Server.pir_respond_shard_checked_batch vserver shard
        [| (n, g); (bad_n, bad_g); (n, g) |]
    in
    Alcotest.(check int) (name ^ ": batch length") 3 (Array.length replies);
    List.iter
      (fun i ->
        match replies.(i) with
        | Ok ge ->
          Alcotest.check (Alcotest.testable Z.pp Z.equal)
            (Printf.sprintf "%s: honest neighbour %d" name i) honest ge
        | Error r ->
          Alcotest.failf "%s: honest neighbour %d rejected: %s" name i
            (Server.rejection_message r))
      [ 0; 2 ];
    expect_reject (name ^ " (batched)") check replies.(1)
  in
  (* |N| out of bounds, both directions. *)
  expect_pir_reject "oversized N" oversized (Z.shift_left n 512, g);
  expect_pir_reject "undersized N" undersized (Z.of_int 15, Z.of_int 4);
  (* Even N cannot be a product of two odd primes. *)
  expect_pir_reject "even N" pir_malformed (Z.succ n, g);
  (* Degenerate bases: g in {0, 1, N-1} (orders 0, 1, 2). *)
  expect_pir_reject "g = 0" degenerate (n, Z.zero);
  expect_pir_reject "g = 1" degenerate (n, Z.one);
  expect_pir_reject "g = N-1" degenerate (n, Z.pred n);
  expect_pir_reject "g >= N" degenerate (n, Z.add n (Z.of_int 5));
  (* OT ciphertext components outside (1, p). *)
  let p = Lbq_group.Schnorr.p params.Params.group in
  List.iter
    (fun (label, bad) ->
      expect_reject label ot_malformed
        (Server.ot_respond_checked vserver
           { q1 with Ot.c1 = { q1.Ot.c1 with Lbq_group.Elgamal.a = bad } }))
    [ "ot component 0", Z.zero; "ot component 1", Z.one;
      "ot component p", p ];
  (* Wrong-length OT payloads die in the wire decoder with Malformed. *)
  let group = params.Params.group in
  (match Wire.ot_query_decode group (String.make 10 'x') with
   | _ -> Alcotest.fail "short ot query accepted"
   | exception Wire.Malformed _ -> ());
  let enc = Wire.ot_query_encode group q1 in
  (match Wire.ot_query_decode group (String.sub enc 0 (String.length enc - 3)) with
   | _ -> Alcotest.fail "truncated ot query accepted"
   | exception Wire.Malformed _ -> ());
  (match Wire.ot_query_decode group (enc ^ "zz") with
   | _ -> Alcotest.fail "oversized ot query accepted"
   | exception Wire.Malformed _ -> ());
  (* After all that hostility, honest queries still work. *)
  (match Server.ot_respond_checked vserver q1 with
   | Ok _ -> ()
   | Error r ->
     Alcotest.failf "honest OT query rejected: %s"
       (Server.rejection_message r));
  (match Server.pir_respond_checked vserver ~n ~g with
   | Ok ge -> Alcotest.check (Alcotest.testable Z.pp Z.equal) "same answer"
                (Server.pir_respond vserver ~n ~g) ge
   | Error r ->
     Alcotest.failf "honest PIR query rejected: %s"
       (Server.rejection_message r));
  Alcotest.(check int) "no spurious rejects" !expected
    (Server.rejects vserver);
  (* The bounds themselves are coherent: a legit N sits between them. *)
  Alcotest.(check bool) "legit N within bounds" true
    (Z.numbits n <= Server.pir_max_modulus_bits vserver
     && Z.numbits n >= Server.pir_min_modulus_bits vserver)

(* ------------------------------------------------------------------ *)
(* Params                                                               *)
(* ------------------------------------------------------------------ *)

let test_params () =
  let p = Params.paper () in
  Alcotest.(check int) "paper public" 25 p.Params.public_rows;
  Alcotest.(check int) "paper private cells" 225 (Params.private_cells p);
  Alcotest.(check int) "block bits" (8 * ((2 * Poi.encoded_size) + 16))
    (Params.block_bits p);
  Alcotest.check_raises "bad rmax" (Invalid_argument "Params.make: rmax <= 0")
    (fun () ->
      ignore
        (Params.make ~group:params.Params.group ~public_rows:1 ~public_cols:1
           ~private_rows:1 ~private_cols:1 ~rmax:0 ()))

let () =
  Alcotest.run "lbq_core"
    [ ("rounds",
       [ Alcotest.test_case "correctness" `Quick test_round_correctness;
         Alcotest.test_case "every public cell" `Slow test_round_every_public_cell;
         Alcotest.test_case "transcript shape" `Quick test_transcript_shape;
         Alcotest.test_case "repeated rounds" `Quick test_repeated_rounds_same_setup ]);
      ("arena",
       [ Alcotest.test_case "backends agree" `Quick test_arena_backends_agree;
         Alcotest.test_case "unknown backend" `Quick test_arena_unknown_backend ]);
      ("content-protection",
       [ Alcotest.test_case "malicious PIR for other cell" `Quick
           test_malicious_pir_other_cell;
         Alcotest.test_case "single credential per round" `Quick
           test_ot_single_credential_per_round;
         Alcotest.test_case "tampered PIR response" `Quick
           test_tampered_pir_response ]);
      ("wire",
       [ Alcotest.test_case "roundtrips" `Quick test_wire_roundtrips;
         Alcotest.test_case "malformed" `Quick test_wire_malformed ]);
      ("cellcrypt",
       [ Alcotest.test_case "roundtrip" `Quick test_cellcrypt_roundtrip;
         Alcotest.test_case "failures" `Quick test_cellcrypt_failures ]);
      ("reuse",
       [ Alcotest.test_case "correct and cached" `Quick
           test_reuse_correct_and_cached;
         Alcotest.test_case "LRU bound and eviction" `Quick
           test_reuse_cache_lru_eviction ]);
      ("keypool",
       [ Alcotest.test_case "pooled rounds, fresh moduli" `Quick
           test_pooled_rounds_fresh_moduli;
         Alcotest.test_case "mismatched pool rejected" `Quick
           test_pooled_round_rejects_mismatched_pool ]);
      ("fuzz", [ Alcotest.test_case "wire mutations" `Quick test_wire_fuzz ]);
      ("paper-scale",
       [ Alcotest.test_case "full round at 1024/160" `Slow
           test_paper_scale_round ]);
      ("deployment",
       [ Alcotest.test_case "register and round" `Quick
           test_deployment_register_and_round;
         Alcotest.test_case "two users independent" `Quick
           test_deployment_two_users_independent;
         Alcotest.test_case "rejections" `Quick test_deployment_rejections ]);
      ("queries",
       [ Alcotest.test_case "own cell sufficient" `Quick
           test_knn_own_cell_sufficient;
         Alcotest.test_case "neighbor cell needed" `Slow
           test_knn_neighbor_cell_needed;
         Alcotest.test_case "exact implies global" `Slow
           test_knn_exact_implies_global;
         Alcotest.test_case "bad k" `Quick test_knn_bad_k ]);
      ("audit",
       [ Alcotest.test_case "commit/verify" `Quick test_audit_commit_verify;
         Alcotest.test_case "cell proofs" `Quick test_audit_cell_proofs ]);
      ("validation",
       [ Alcotest.test_case "adversarial inputs rejected" `Quick
           test_server_validation_rejections ]);
      ("params", [ Alcotest.test_case "presets" `Quick test_params ]) ]
