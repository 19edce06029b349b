(* Stage-2 dispatch over the pluggable PIR backend arena.

   The paper's protocol fixes Gentry–Ramzan as the stage-2 scheme; the
   arena re-serves the *same* encrypted cell database (the server's
   [cipher_blocks] grid) under every registered {!Backend_intf.S}
   implementation, so a round can fetch its cell through Gentry–Ramzan,
   the Kushilevitz–Ostrovsky QR baseline, or the word-arithmetic LWE
   backend interchangeably — stage 1 (oblivious transfer of the cell
   credential) is untouched, and the decrypted POIs must be identical
   whichever backend carried the block. *)

open Lbq_geo
module B = Lbq_pir_backend.Backend_intf
module Registry = Lbq_pir_backend.Registry
module Instance = Registry.Instance
module Counters = Lbq_metrics.Counters
module Drbg = Lbq_crypto.Drbg

(* The Gentry–Ramzan backend is re-instantiated at the deployment's
   cofactor width so its phi-hiding instances match what the protocol
   proper would send; the QR and LWE defaults are parameter-free with
   respect to the deployment. *)
let deployment_backends (params : Params.t) : B.backend list =
  let module G =
    Lbq_pir_backend.Gr_backend.Make (struct
      let q_bits = params.Params.q_bits
    end)
  in
  [ (module G : B.S);
    Lbq_pir_backend.Qr_backend.default;
    Lbq_pir_backend.Lwe_backend.default ]

type t = {
  server : Server.t;
  instances : (string * Instance.t) list;  (* registration order *)
}

let create ?(metrics = Counters.null) ?(seed = "lbq-arena") (server : Server.t)
    : t =
  let blocks = Server.cipher_blocks server in
  let drbg = Drbg.create ~domain:"lbq-arena" ~seed () in
  let instances =
    List.map
      (fun backend ->
        let module M = (val backend : B.S) in
        (M.name, Instance.create ~metrics ~rand:(Drbg.rand drbg) backend blocks))
      (deployment_backends (Server.params server))
  in
  { server; instances }

let server t = t.server
let names t = List.map fst t.instances

let instance t ~backend : Instance.t =
  match List.assoc_opt backend t.instances with
  | Some i -> i
  | None ->
    invalid_arg
      (Printf.sprintf "Arena.instance: unknown backend %S (have: %s)" backend
         (String.concat ", " (names t)))

(* Fetch the credential's cell through [backend] and decrypt it, exactly
   as stage 2 proper would: PIR-retrieve the ciphertext block, decrypt
   under the stage-1 cell key, drop the padding dummies. *)
let fetch ?clock ?(metrics = Counters.null) ~rand ~backend t
    (cred : Client.credential) : Poi.t list * Instance.round =
  let inst = instance t ~backend in
  let cols = Instance.cols inst in
  let idq = Client.credential_idq cred in
  let round =
    Instance.fetch ?clock ~metrics ~rand ~row:(idq / cols) ~col:(idq mod cols)
      inst
  in
  (Client.decrypt_block cred round.Instance.block, round)
