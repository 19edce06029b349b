(* The cross-backend differential arena: every registered PIR backend
   (Gentry–Ramzan, the Kushilevitz–Ostrovsky QR baseline, and the
   small-modulus lattice backend) is driven through identical
   deterministic grids, seeds and query plans, and checked four ways —

     retrieval correctness      decoded block = the plaintext oracle
     decode agreement           all backends return byte-identical blocks
     cost oracle                predicted_cost = measured wire lengths
                                and measured server-mult counter deltas
     wire round-trips           decode . encode = id on honest frames,
                                Malformed on everything else

   plus the edge shapes every backend must survive (1x1, single
   row/column, non-square, empty and max-size payloads) and adversarial
   frame tests for the new lattice backend. *)

open Lbq_pir_backend
module B = Backend_intf
module Counters = Lbq_metrics.Counters
module Drbg = Lbq_crypto.Drbg
module Fixture = Lbq_testutil.Fixture

let backends = Registry.all ()

(* ------------------------------------------------------------------ *)
(* Shared deterministic inputs                                          *)
(* ------------------------------------------------------------------ *)

(* The plaintext oracle: the grid every backend encodes. *)
let oracle_blocks ?(tag = 0) ~rows ~cols ~len () =
  Array.init rows (fun r ->
      Array.init cols (fun c ->
          String.init len (fun k ->
              ((r * 131) + (c * 29) + (k * 7) + tag) land 0xff |> Char.chr)))

(* One deterministic query plan per grid shape, shared verbatim by every
   backend: the same (row, col) targets in the same order. *)
let query_plan ~rows ~cols ~count =
  let drbg = Drbg.create ~seed:(Printf.sprintf "plan-%dx%d" rows cols) () in
  List.init count (fun _ -> Drbg.int drbg rows, Drbg.int drbg cols)

(* Per-backend client randomness, deterministically derived from the
   grid shape and backend name (each backend consumes its stream
   differently, so streams are namespaced but reproducible). *)
let rand_for ~name ~rows ~cols ~len =
  Drbg.rand
    (Drbg.create ~seed:(Printf.sprintf "arena-%s-%dx%dx%d" name rows cols len) ())

(* ------------------------------------------------------------------ *)
(* The differential drive                                               *)
(* ------------------------------------------------------------------ *)

(* Run [targets] through one backend over [blocks]; returns the decoded
   blocks in plan order.  All four assertion families run inline. *)
let drive (module M : B.S) ~(metrics : Counters.t) (blocks : string array array)
    (targets : (int * int) list) : string list =
  let rows = Array.length blocks and cols = Array.length blocks.(0) in
  let len = String.length blocks.(0).(0) in
  let rand = rand_for ~name:M.name ~rows ~cols ~len in
  let server = M.encode ~metrics ~rand blocks in
  Alcotest.(check int) (M.name ^ " rows") rows (M.rows server);
  Alcotest.(check int) (M.name ^ " cols") cols (M.cols server);
  Alcotest.(check int) (M.name ^ " block_len") len (M.block_len server);
  let public = M.public server in
  List.map
    (fun (row, col) ->
      let label fmt =
        Printf.ksprintf
          (fun s -> Printf.sprintf "%s %dx%dx%d (%d,%d): %s" M.name rows cols
              len row col s)
          fmt
      in
      let client, query = M.query ~metrics ~rand ~public ~row ~col () in
      (* Wire round-trip: decode . encode = id, bytes and values. *)
      let qw = M.query_encode query in
      let query' = M.query_decode qw in
      Alcotest.(check string) (label "query wire round-trip") qw
        (M.query_encode query');
      let before = (Counters.snapshot metrics).Counters.server_mult in
      let response = M.respond server query' in
      let measured_mults =
        (Counters.snapshot metrics).Counters.server_mult - before
      in
      let rw = M.response_encode response in
      let response' = M.response_decode rw in
      Alcotest.(check string) (label "response wire round-trip") rw
        (M.response_encode response');
      (* Cost oracle: predicted = measured, bytes and mults. *)
      let cost = M.predicted_cost server query in
      Alcotest.(check int) (label "predicted query bytes") cost.B.query_bytes
        (String.length qw);
      Alcotest.(check int) (label "predicted response bytes")
        cost.B.response_bytes (String.length rw);
      Alcotest.(check int) (label "predicted server mults") cost.B.server_mults
        measured_mults;
      (* Retrieval correctness against the plaintext oracle. *)
      let block = M.decode client response' in
      Alcotest.(check string) (label "block = oracle") blocks.(row).(col) block;
      block)
    targets

let differential ~rows ~cols ~len ~queries (_ : Counters.t) =
  let blocks = oracle_blocks ~rows ~cols ~len () in
  let targets = query_plan ~rows ~cols ~count:queries in
  let per_backend =
    List.map
      (fun (module M : B.S) ->
        (* A fresh clean counter per backend so one backend's counts can
           never satisfy (or poison) another backend's oracle check. *)
        M.name, Fixture.with_metrics (fun metrics ->
            drive (module M) ~metrics blocks targets))
      backends
  in
  (* Decode agreement: all backends produced byte-identical sequences. *)
  match per_backend with
  | [] | [ _ ] -> Alcotest.fail "arena needs at least two backends"
  | (ref_name, ref_blocks) :: rest ->
    List.iter
      (fun (name, their_blocks) ->
        List.iteri
          (fun i (b_ref, b_theirs) ->
            Alcotest.(check string)
              (Printf.sprintf "%s agrees with %s on query %d" name ref_name i)
              b_ref b_theirs)
          (List.combine ref_blocks their_blocks))
      rest

(* ------------------------------------------------------------------ *)
(* Grid shapes                                                          *)
(* ------------------------------------------------------------------ *)

let shape_cases =
  [ (* name, rows, cols, block_len, queries *)
    "square", 3, 3, 4, 4;
    "non-square wide", 2, 5, 4, 4;
    "non-square tall", 4, 2, 3, 4;
    "1x1 grid", 1, 1, 4, 2;
    "single row", 1, 5, 4, 3;
    "single column", 5, 1, 4, 3;
    "empty payload", 2, 3, 0, 2;
    "one-byte payload", 2, 2, 1, 3;
    "wide payload", 2, 2, 48, 2;
  ]

let shape_tests =
  List.map
    (fun (name, rows, cols, len, queries) ->
      Fixture.case name (differential ~rows ~cols ~len ~queries))
    shape_cases

(* Max-size payloads: all-0xff blocks sit exactly at the Gr slot
   capacity boundary (record = 2^(8 len) - 1 < pi) and make every QR
   bit-plane squaring-free — both worth pinning. *)
let test_max_payload (_ : Counters.t) =
  let rows = 2 and cols = 2 and len = 6 in
  let blocks =
    Array.init rows (fun _ -> Array.init cols (fun _ -> String.make len '\xff'))
  in
  let targets = [ 0, 0; 1, 1; 0, 1 ] in
  List.iter
    (fun (module M : B.S) ->
      Fixture.with_metrics (fun metrics ->
          ignore (drive (module M) ~metrics blocks targets)))
    backends

(* ------------------------------------------------------------------ *)
(* Batched respond: byte-identity to sequential                         *)
(* ------------------------------------------------------------------ *)

(* [respond_batch] must be observationally equal to mapping [respond]:
   the same response bytes in the same order, the same server_mult and
   server_bytes counter deltas, at every batch size — including the
   empty batch, k = 1 (the passthrough), and a ragged split of a deeper
   queue (7 + 7 + 2 over 16 queries, the shape a queue-draining worker
   actually produces). *)
let test_batch_identity (_ : Counters.t) =
  let rows = 3 and cols = 4 and len = 3 in
  let blocks = oracle_blocks ~rows ~cols ~len () in
  let targets = query_plan ~rows ~cols ~count:16 in
  List.iter
    (fun (module M : B.S) ->
      Fixture.with_metrics (fun metrics ->
          let rand = rand_for ~name:(M.name ^ "-batch") ~rows ~cols ~len in
          let server = M.encode ~metrics ~rand blocks in
          let public = M.public server in
          let pairs =
            Array.of_list
              (List.map
                 (fun (row, col) -> M.query ~metrics ~rand ~public ~row ~col ())
                 targets)
          in
          let queries = Array.map snd pairs in
          let mults () = (Counters.snapshot metrics).Counters.server_mult in
          let bytes () = (Counters.snapshot metrics).Counters.server_bytes in
          let sequential k =
            let m0 = mults () and b0 = bytes () in
            let rs = Array.map (M.respond server) (Array.sub queries 0 k) in
            Array.map M.response_encode rs, mults () - m0, bytes () - b0
          in
          let batched k =
            let m0 = mults () and b0 = bytes () in
            let rs = M.respond_batch server (Array.sub queries 0 k) in
            Array.map M.response_encode rs, mults () - m0, bytes () - b0
          in
          List.iter
            (fun k ->
              let seq, sm, sb = sequential k in
              let bat, bm, bb = batched k in
              Alcotest.(check int)
                (Printf.sprintf "%s k=%d batch length" M.name k)
                k (Array.length bat);
              Array.iteri
                (fun i b ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s k=%d reply %d bytes" M.name k i)
                    seq.(i) b)
                bat;
              Alcotest.(check int)
                (Printf.sprintf "%s k=%d server_mult delta" M.name k) sm bm;
              Alcotest.(check int)
                (Printf.sprintf "%s k=%d server_bytes delta" M.name k) sb bb)
            [ 0; 1; 2; 7; 16 ];
          (* Ragged drain: a 16-deep queue in batches of at most 7. *)
          let seq_all, _, _ = sequential 16 in
          List.iter
            (fun (off, k) ->
              let rs = M.respond_batch server (Array.sub queries off k) in
              Array.iteri
                (fun i r ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s ragged chunk @%d reply %d" M.name off i)
                    seq_all.(off + i) (M.response_encode r))
                rs)
            [ 0, 7; 7, 7; 14, 2 ];
          (* Batched responses still decode to the oracle blocks. *)
          let rs = M.respond_batch server queries in
          Array.iteri
            (fun i r ->
              let row, col = List.nth targets i in
              Alcotest.(check string)
                (Printf.sprintf "%s batch decode %d" M.name i)
                blocks.(row).(col)
                (M.decode (fst pairs.(i)) r))
            rs))
    backends

(* ------------------------------------------------------------------ *)
(* Counter hygiene                                                      *)
(* ------------------------------------------------------------------ *)

(* The fixture must hand out genuinely clean counters and reset them
   afterwards — otherwise every predicted-vs-measured assertion above is
   one leaked increment away from flaking. *)
let test_fixture_hygiene () =
  let seen = ref None in
  Fixture.with_metrics (fun c ->
      seen := Some c;
      Counters.server_mult c 41);
  (match !seen with
   | Some c ->
     Alcotest.(check bool) "reset after use" true (Fixture.is_clean c)
   | None -> Alcotest.fail "fixture did not run");
  (* A dirty counter is rejected at entry. *)
  let dirty = Counters.create () in
  Counters.user_mult dirty 1;
  (match Fixture.assert_clean dirty with
   | exception _ -> ()
   | () -> Alcotest.fail "dirty counter accepted")

(* ------------------------------------------------------------------ *)
(* Adversarial frames (strict server-side validation)                   *)
(* ------------------------------------------------------------------ *)

let check_malformed name f =
  match f () with
  | exception B.Malformed _ -> ()
  | exception e ->
    Alcotest.failf "%s: expected Malformed, got %s" name (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: malformed frame accepted" name

(* Bit-level u32/u64 helpers mirrored from the backend wire layer. *)
let u32 v = String.init 4 (fun k -> Char.chr ((v lsr ((3 - k) * 8)) land 0xff))
let u64 v = String.init 8 (fun k -> Char.chr ((v lsr ((7 - k) * 8)) land 0xff))

(* Every backend must refuse garbage and truncations at the frame layer.
   The last frame is gr's (N, g) = (3, 0) with g spelt as one zero byte,
   which would re-encode as an empty field. *)
let test_garbage_frames (_ : Counters.t) =
  List.iter
    (fun (module M : B.S) ->
      List.iter
        (fun frame ->
          check_malformed (M.name ^ " query garbage") (fun () ->
              M.query_decode frame);
          check_malformed (M.name ^ " response garbage") (fun () ->
              M.response_decode frame))
        [ ""; "\x00"; "abc"; u32 7; String.make 3 '\xff';
          u32 1 ^ "\x03" ^ u32 1 ^ "\x00" ])
    backends

(* The lattice backend's frame validation, adversarially: each mutation
   of an honest frame must be rejected, mirroring PR 1's hostile-client
   server tests. *)
let lwe : B.backend =
  match Registry.find "lwe" with
  | Some b -> b
  | None -> Alcotest.fail "lwe backend not registered"

let test_lwe_malformed_frames (_ : Counters.t) =
  let module M = (val lwe) in
  Fixture.with_metrics (fun metrics ->
      let rows = 2 and cols = 3 and len = 2 in
      let blocks = oracle_blocks ~rows ~cols ~len () in
      let rand = rand_for ~name:"lwe-adversarial" ~rows ~cols ~len in
      let server = M.encode ~metrics ~rand blocks in
      let public = M.public server in
      let _, query = M.query ~metrics ~rand ~public ~row:1 ~col:2 () in
      let honest = M.query_encode query in
      (* Truncated / extended frames. *)
      check_malformed "truncated" (fun () ->
          M.query_decode (String.sub honest 0 (String.length honest - 1)));
      check_malformed "extended" (fun () -> M.query_decode (honest ^ "\x00"));
      (* Count field inconsistent with the payload. *)
      check_malformed "count too small" (fun () ->
          M.query_decode (u32 (cols - 1) ^ String.sub honest 4 (8 * cols)));
      check_malformed "count zero" (fun () -> M.query_decode (u32 0));
      check_malformed "count huge" (fun () ->
          M.query_decode (u32 ((1 lsl 20) + 1) ^ String.sub honest 4 (8 * cols)));
      (* A word with bits above the 34-bit torus modulus. *)
      check_malformed "word out of range" (fun () ->
          M.query_decode
            (u32 cols ^ u64 (1 lsl 34) ^ String.sub honest 12 (8 * (cols - 1))));
      (* A word that does not even fit a 63-bit OCaml int. *)
      check_malformed "word beyond int" (fun () ->
          M.query_decode
            (u32 cols ^ "\xff" ^ String.make 7 '\x00'
             ^ String.sub honest 12 (8 * (cols - 1))));
      (* A frame valid in isolation but of the wrong width for this
         database must be refused by respond, not answered. *)
      let narrow = M.query_decode (u32 1 ^ u64 123) in
      check_malformed "respond width" (fun () -> M.respond server narrow);
      (* The batched path validates every query before any work: one bad
         query poisons the whole batch, even behind an honest one. *)
      check_malformed "batched respond width" (fun () ->
          M.respond_batch server [| M.query_decode honest; narrow |]);
      (* Responses validate too (the client is not a bit bucket). *)
      let resp = M.respond server (M.query_decode honest) in
      let rw = M.response_encode resp in
      check_malformed "response truncated" (fun () ->
          M.response_decode (String.sub rw 0 (String.length rw - 2)));
      check_malformed "response word range" (fun () ->
          M.response_decode (u32 1 ^ u64 ((1 lsl 35) - 1))))

(* Every modulus the bignum engine serves is odd, so an even query
   modulus is hostile input: gr and qr must refuse it with Malformed
   before any work, alone and behind an honest query in a batch — no
   server multiplication is ever counted.  The even modulus is the
   honest one with its low bit cleared, so parity is the only fault. *)
let test_even_modulus (_ : Counters.t) =
  List.iter
    (fun (name, modulus_last_byte, want) ->
      let module M = (val Registry.find_exn name) in
      Fixture.with_metrics (fun metrics ->
          let rows = 2 and cols = 3 and len = 2 in
          let blocks = oracle_blocks ~rows ~cols ~len () in
          let rand = rand_for ~name:(name ^ "-even") ~rows ~cols ~len in
          let server = M.encode ~metrics ~rand blocks in
          let _, query =
            M.query ~metrics ~rand ~public:(M.public server) ~row:1 ~col:2 ()
          in
          let honest = M.query_encode query in
          let even =
            let b = Bytes.of_string honest in
            let i = modulus_last_byte honest in
            Bytes.set b i (Char.chr (Char.code honest.[i] land 0xfe));
            M.query_decode (Bytes.to_string b)
          in
          let refused label f =
            match f () with
            | exception B.Malformed m -> Alcotest.(check string) label want m
            | _ -> Alcotest.failf "%s: even modulus answered" label
          in
          refused (name ^ " respond") (fun () -> M.respond server even);
          refused (name ^ " batch, honest query first") (fun () ->
              M.respond_batch server [| M.query_decode honest; even |]);
          Alcotest.(check int) (name ^ " refused before any work") 0
            (Counters.snapshot metrics).Counters.server_mult))
    [ (* gr: lp(N) ^ lp(g) *)
      ("gr", (fun w -> 4 + B.read_u32 w 0 - 1), "Gr.Server.respond: bad modulus");
      (* qr: u32 el ^ u32 cols ^ N ^ ys, N padded to el bytes *)
      ("qr", (fun w -> 8 + B.read_u32 w 0 - 1), "qr modulus") ]

(* PR 8 lifted q from 2^30 to 2^34: the rounding bound
   cols * 255 * noise_max < delta / 2 now admits 32896 columns, 16x the
   old 2056.  Exercise the exact boundary with a tiny LWE dimension
   (max_cols is independent of n, and n = 1 keeps the 32896-column
   matrices cheap): a full round at cols = max_cols still decodes the
   right byte, and one more column is refused at encode. *)
let test_lwe_max_cols_boundary (_ : Counters.t) =
  let module M = Lwe_backend.Make (struct let dimension = 1 end) in
  Fixture.with_metrics (fun metrics ->
      Alcotest.(check int) "lifted ceiling" 32896 Lwe_backend.max_cols;
      let cols = Lwe_backend.max_cols in
      let blocks =
        [| Array.init cols (fun j -> String.make 1 (Char.chr ((j * 37) land 0xff))) |]
      in
      let rand = Drbg.rand (Drbg.create ~seed:"lwe-boundary" ()) in
      let server = M.encode ~metrics ~rand blocks in
      let public = M.public server in
      let col = cols - 1 in
      let client, q = M.query ~metrics ~rand ~public ~row:0 ~col () in
      let out = M.decode client (M.respond server q) in
      Alcotest.(check string) "decodes at the ceiling" blocks.(0).(col) out;
      let too_wide = [| Array.make (cols + 1) "\x00" |] in
      Alcotest.check_raises "one past the ceiling"
        (Invalid_argument
           "Lwe_backend.encode: too many columns for the noise budget")
        (fun () -> ignore (M.encode ~metrics ~rand too_wide)))

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)
(* ------------------------------------------------------------------ *)

let prop name count arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* Lattice wire messages round-trip and decode correctly under random
   seeds and random targets. *)
let props =
  [ prop "lwe: wire round-trip + retrieval under random seeds" 12
      (QCheck.make QCheck.Gen.(triple nat (int_range 1 4) (int_range 1 5)))
      (fun (seed, rows, cols) ->
        let module M = (val lwe) in
        Fixture.with_metrics (fun metrics ->
            let len = 1 + (seed mod 5) in
            let blocks = oracle_blocks ~tag:seed ~rows ~cols ~len () in
            let rand =
              Drbg.rand (Drbg.create ~seed:(Printf.sprintf "lwe-prop-%d" seed) ())
            in
            let server = M.encode ~metrics ~rand blocks in
            let public = M.public server in
            let row = seed mod rows and col = (seed / 7) mod cols in
            let client, query = M.query ~metrics ~rand ~public ~row ~col () in
            let qw = M.query_encode query in
            let qrt = String.equal qw (M.query_encode (M.query_decode qw)) in
            let resp = M.respond server (M.query_decode qw) in
            let rw = M.response_encode resp in
            let rrt =
              String.equal rw (M.response_encode (M.response_decode rw))
            in
            let ok =
              String.equal blocks.(row).(col)
                (M.decode client (M.response_decode rw))
            in
            qrt && rrt && ok));
    (* The update capability's core contract: N random in-place block
       updates leave the server byte-identical to a fresh encode over the
       final grid under the same setup randomness — public bytes, response
       wires, and decoded blocks all agree.  Encode randomness is
       content-independent in every backend, so replaying the stream
       against the patched grid is a true oracle. *)
    prop "update: N patches = fresh encode, byte-identical" 10
      (QCheck.make
         QCheck.Gen.(triple nat (pair (int_range 1 4) (int_range 1 4))
                       (int_range 0 12)))
      (fun (seed, (rows, cols), n) ->
        let len = 3 in
        List.for_all
          (fun (module M : B.S) ->
            let patch = M.update in
            Fixture.with_metrics (fun metrics ->
                let blocks = oracle_blocks ~tag:seed ~rows ~cols ~len () in
                let enc_seed = Printf.sprintf "upd-prop-%s-%d" M.name seed in
                let fresh_rand () =
                  Drbg.rand (Drbg.create ~seed:enc_seed ())
                in
                let live = M.encode ~metrics ~rand:(fresh_rand ()) blocks in
                let drbg =
                  Drbg.create ~seed:(Printf.sprintf "upd-walk-%d" seed) ()
                in
                for _ = 1 to n do
                  let row = Drbg.int drbg rows and col = Drbg.int drbg cols in
                  let block =
                    String.init len (fun _ -> Char.chr (Drbg.int drbg 256))
                  in
                  blocks.(row).(col) <- block;
                  patch live ~row ~col ~block
                done;
                let oracle = M.encode ~metrics ~rand:(fresh_rand ()) blocks in
                let public_ok = String.equal (M.public live) (M.public oracle) in
                let qrand = rand_for ~name:(M.name ^ "-upd") ~rows ~cols ~len in
                let wires_ok =
                  List.for_all
                    (fun (row, col) ->
                      let client, q =
                        M.query ~metrics ~rand:qrand ~public:(M.public live)
                          ~row ~col ()
                      in
                      let r_live = M.respond live q in
                      let r_oracle = M.respond oracle q in
                      String.equal (M.response_encode r_live)
                        (M.response_encode r_oracle)
                      && String.equal blocks.(row).(col)
                           (M.decode client r_live))
                    (query_plan ~rows ~cols ~count:3)
                in
                public_ok && wires_ok))
          backends);
    prop "arena: all backends agree on random cells" 4
      (QCheck.make QCheck.Gen.(pair (int_range 1 3) (int_range 1 3)))
      (fun (rows, cols) ->
        let blocks = oracle_blocks ~rows ~cols ~len:3 () in
        let targets = query_plan ~rows ~cols ~count:2 in
        let outs =
          List.map
            (fun (module M : B.S) ->
              Fixture.with_metrics (fun metrics ->
                  drive (module M) ~metrics blocks targets))
            backends
        in
        match outs with
        | [] -> false
        | first :: rest -> List.for_all (( = ) first) rest);
  ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "lbq_backends"
    [ ("differential",
       shape_tests @ [ Fixture.case "max-size payload" test_max_payload ]);
      ("batch",
       [ Fixture.case "batched respond = sequential" test_batch_identity ]);
      ("hygiene",
       [ Alcotest.test_case "fixture counter hygiene" `Quick
           test_fixture_hygiene ]);
      ("adversarial",
       [ Fixture.case "garbage frames" test_garbage_frames;
         Fixture.case "lwe malformed frames" test_lwe_malformed_frames;
         Fixture.case "even modulus refused" test_even_modulus ]);
      ("boundary",
       [ Fixture.case "lwe max_cols ceiling" test_lwe_max_cols_boundary ]);
      ("properties", props) ]
