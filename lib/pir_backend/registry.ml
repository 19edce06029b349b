(* The backend arena: every {!Backend_intf.S} implementation under a
   stable name, plus a packed driver that runs one full fetch — query,
   wire framing both ways, respond, decode — for callers that pick the
   backend at runtime (the CLI's --backend, the bench head-to-head, the
   core dispatch). *)

module B = Backend_intf
module Counters = Lbq_metrics.Counters

(* Registry defaults use arena-sized parameters (24-bit Gr cofactors,
   128-bit Blum moduli, LWE dimension 64); deployments wanting other
   widths instantiate the Make functors directly. *)
let all () : B.backend list =
  [ Gr_backend.default; Qr_backend.default; Lwe_backend.default ]

let names () = List.map (fun (module M : B.S) -> M.name) (all ())

let find name =
  List.find_opt (fun (module M : B.S) -> String.equal M.name name) (all ())

let find_exn name =
  match find name with
  | Some b -> b
  | None ->
    invalid_arg
      (Printf.sprintf "Registry.find_exn: unknown backend %S (have: %s)" name
         (String.concat ", " (names ())))

(* ------------------------------------------------------------------ *)
(* Packed instances                                                     *)
(* ------------------------------------------------------------------ *)

(* One encoded database under one backend, with the backend's server
   type hidden behind an existential — callers hold a [t] without ever
   naming the module. *)
module Instance = struct
  type t =
    | Pack :
        (module B.S with type server = 'srv) * 'srv * Counters.t -> t

  let create ?(metrics = Counters.null) ~rand (backend : B.backend)
      (blocks : string array array) : t =
    let module M = (val backend) in
    Pack ((module M), M.encode ~metrics ~rand blocks, metrics)

  let name (Pack ((module M), _, _)) = M.name
  let mult_kind (Pack ((module M), _, _)) = M.mult_kind
  let rows (Pack ((module M), s, _)) = M.rows s
  let cols (Pack ((module M), s, _)) = M.cols s
  let block_len (Pack ((module M), s, _)) = M.block_len s
  let public (Pack ((module M), s, _)) = M.public s

  (* Apply a single-block update in place through the backend's
     [update].  Bumps the instance metrics' [update_blocks]. *)
  let update (Pack ((module M), s, metrics) : t) ~row ~col ~block : unit =
    M.update s ~row ~col ~block;
    Counters.update_blocks metrics 1

  (* Everything one wire-framed round produced: the block, the measured
     frame sizes, the oracle's prediction, the measured server
     multiplication count, and per-phase wall-clock (under [clock];
     defaults to 0 so pure callers pay nothing). *)
  type round = {
    block : string;
    query_wire : string;
    response_wire : string;
    predicted : B.cost;
    measured_server_mults : int;
    query_s : float;
    respond_s : float;
    decode_s : float;
  }

  let fetch ?(clock = fun () -> 0.) ?(metrics = Counters.null) ~rand ~row ~col
      (Pack ((module M), server, server_metrics) : t) : round =
    let public = M.public server in
    let t0 = clock () in
    let client, query = M.query ~metrics ~rand ~public ~row ~col () in
    let query_wire = M.query_encode query in
    let t1 = clock () in
    let before = (Counters.snapshot server_metrics).Counters.server_mult in
    let response = M.respond server (M.query_decode query_wire) in
    let measured_server_mults =
      (Counters.snapshot server_metrics).Counters.server_mult - before
    in
    let response_wire = M.response_encode response in
    let t2 = clock () in
    let block = M.decode client (M.response_decode response_wire) in
    let t3 = clock () in
    { block; query_wire; response_wire;
      predicted = M.predicted_cost server query;
      measured_server_mults;
      query_s = t1 -. t0; respond_s = t2 -. t1; decode_s = t3 -. t2 }
end
