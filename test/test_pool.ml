(* Tests for the Domains worker pool (lib/pool/pool.ml): ordering,
   exception propagation, reuse and shutdown.  Concurrent serving on top
   of it is tested against the sequential oracle in test_serve. *)

module Pool = Lbq_pool.Pool

(* ------------------------------------------------------------------ *)
(* Pool mechanics                                                       *)
(* ------------------------------------------------------------------ *)

let test_map_order () =
  (* Results must come back in input order regardless of which worker
     ran which job, at several pool widths including oversubscription. *)
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          Alcotest.(check int) "size" domains (Pool.size pool);
          let inputs = Array.init 101 Fun.id in
          let got = Pool.map pool (fun x -> x * x) inputs in
          Alcotest.(check (array int))
            (Printf.sprintf "squares with %d domains" domains)
            (Array.map (fun x -> x * x) inputs)
            got))
    [ 1; 2; 4; 8 ]

let test_map_empty_and_reuse () =
  Pool.with_pool ~domains:2 (fun pool ->
      Alcotest.(check (array int)) "empty" [||] (Pool.map pool succ [||]);
      (* The pool must stay usable across many map calls. *)
      for round = 1 to 5 do
        let inputs = Array.init 17 (fun i -> (round * 100) + i) in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d" round)
          (Array.map succ inputs)
          (Pool.map pool succ inputs)
      done)

exception Boom of int

let test_map_exception () =
  Pool.with_pool ~domains:2 (fun pool ->
      (* A failing job must surface its exception to the caller... *)
      (match
         Pool.map pool
           (fun x -> if x = 7 then raise (Boom x) else x)
           (Array.init 20 Fun.id)
       with
      | _ -> Alcotest.fail "expected Boom to propagate"
      | exception Boom 7 -> ());
      (* ...without wedging the pool for later batches. *)
      let inputs = Array.init 9 Fun.id in
      Alcotest.(check (array int)) "pool survives a failed batch"
        (Array.map (fun x -> x + 1) inputs)
        (Pool.map pool (fun x -> x + 1) inputs))

let test_shutdown_idempotent () =
  let pool = Pool.create ~domains:2 () in
  ignore (Pool.map pool succ [| 1; 2; 3 |]);
  Pool.shutdown pool;
  Pool.shutdown pool;
  (match Pool.submit pool ignore with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "submit after shutdown must raise")

let () =
  Alcotest.run "lbq_pool"
    [ ("pool",
       [ Alcotest.test_case "map preserves order" `Quick test_map_order;
         Alcotest.test_case "empty input and reuse" `Quick
           test_map_empty_and_reuse;
         Alcotest.test_case "exception propagation" `Quick test_map_exception;
         Alcotest.test_case "shutdown idempotent" `Quick
           test_shutdown_idempotent ]) ]
