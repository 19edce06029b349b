(* The querying user.  One round (Figure 2):

   stage 1 — determine the public-grid cell from GPS coordinates, fetch
   its (IDQ, k) credential by oblivious transfer;

   stage 2 — fetch the encrypted block of private cell IDQ by PIR and
   decrypt it with k.

   The server never sees the cell indices; the user ends the round with
   the POI records of exactly one private cell. *)

open Lbq_bignum
open Lbq_geo
module Ot = Lbq_ot.Ot
module Gr = Lbq_pir.Gr
module Counters = Lbq_metrics.Counters
module Drbg = Lbq_crypto.Drbg
module Keypool = Lbq_cache.Keypool

exception Protocol_error of string

(* One [reuse:true] instance-cache entry; [tick] is the LRU clock value
   of its last use. *)
type cache_entry = {
  pir : Gr.Client.state;
  cwire : Z.t * Z.t;
  mutable tick : int;
}

type t = {
  params : Params.t;
  public : Server.public_info;
  rand : int -> string;
  metrics : Counters.t;
  pir_cache : (int, cache_entry) Hashtbl.t;
    (* per-cell phi-hiding instances, for opt-in reuse across rounds;
       bounded by [cache_cap] under LRU eviction *)
  cache_cap : int;
  mutable cache_tick : int;
}

let create ?(metrics = Counters.null) ?(seed = "lbq-user") ?(cache_cap = 8)
    (public : Server.public_info) : t =
  if cache_cap < 1 then invalid_arg "Client.create: cache_cap < 1";
  let drbg = Drbg.create ~domain:"lbq-user" ~seed () in
  { params = public.Server.params; public; rand = Drbg.rand drbg; metrics;
    pir_cache = Hashtbl.create 8; cache_cap; cache_tick = 0 }

let metrics t = t.metrics

(* The credential stage 1 yields: which private cell, and its key. *)
type credential = { idq : int; cell_key : string }

let credential_idq c = c.idq
let credential_key c = c.cell_key

(* Which public cell contains the user?  Purely local. *)
let locate t (position : Coord.t) : Grid.cell =
  Grid.cell_of_coord t.public.Server.public_grid position

(* ---------------- stage 1: oblivious transfer ---------------- *)

type stage1 = Ot.Client.state

let stage1_query t (cell : Grid.cell) : stage1 * Ot.query =
  Ot.Client.query ~group:t.params.Params.group ~rand:t.rand ~metrics:t.metrics
    ~i:cell.Grid.row ~j:cell.Grid.col ()

let stage1_decode t (st : stage1) (resp : Ot.response) : credential =
  let payload =
    Ot.Client.decode st ~masked:t.public.Server.masked_table resp
  in
  let idq, cell_key =
    try Server.decode_payload payload
    with Invalid_argument _ -> raise (Protocol_error "stage 1: bad payload")
  in
  if idq < 0 || idq >= Gr.plan_size t.public.Server.plan then
    raise (Protocol_error "stage 1: cell id out of range");
  { idq; cell_key }

(* ---------------- stage 2: private information retrieval ------ *)

type stage2 = { pir : Gr.Client.state; cred : credential }

(* LRU bookkeeping for the [reuse:true] instance cache: unbounded growth
   across cells (one phi-hiding instance per private cell, each holding
   Pohlig–Hellman tables) is real memory on a mobile client, so the
   cache holds at most [cache_cap] entries and evicts the least recently
   used. *)
let cache_touch t (e : cache_entry) =
  t.cache_tick <- t.cache_tick + 1;
  e.tick <- t.cache_tick

let cache_store t idq pir cwire =
  if Hashtbl.length t.pir_cache >= t.cache_cap then begin
    let victim = ref None in
    Hashtbl.iter
      (fun k (e : cache_entry) ->
        match !victim with
        | Some (_, tick) when tick <= e.tick -> ()
        | _ -> victim := Some (k, e.tick))
      t.pir_cache;
    match !victim with
    | Some (k, _) ->
      Hashtbl.remove t.pir_cache k;
      Counters.cache_evictions t.metrics 1
    | None -> ()
  end;
  let e = { pir; cwire; tick = 0 } in
  cache_touch t e;
  Hashtbl.replace t.pir_cache idq e

let cache_size t = Hashtbl.length t.pir_cache

(* Building the phi-hiding instance (two primality searches) dominates the
   round, and §VI notes that "using the same set-up, the user can execute
   several more rounds very efficiently".  Two opt-in ways to avoid it:

   [reuse:true] caches the instance per cell and replays it on later
   rounds for the same cell.  Trade-off: the server sees the same
   modulus N again and learns that two rounds target the same (still
   unknown) cell.

   [pool] takes a fresh prebuilt instance from a background
   {!Keypool} — each round still sends a fresh modulus, so rounds stay
   unlinkable; the primality search merely ran ahead of time.  On a
   reuse hit the cache wins (no pool generation is consumed); otherwise
   the pool (when given) beats a fresh inline build. *)
let stage2_query ?(reuse = false) ?pool t (cred : credential)
    : stage2 * (Z.t * Z.t) =
  let cached =
    if reuse then begin
      match Hashtbl.find_opt t.pir_cache cred.idq with
      | Some e ->
        Counters.cache_hits t.metrics 1;
        cache_touch t e;
        Some (e.pir, e.cwire)
      | None ->
        Counters.cache_misses t.metrics 1;
        None
    end
    else None
  in
  match cached with
  | Some (pir, wire) -> { pir; cred }, wire
  | None ->
    let pir, wire =
      match pool with
      | Some kp ->
        if Keypool.q_bits kp <> t.params.Params.q_bits
           || Gr.plan_size (Keypool.plan kp)
              <> Gr.plan_size t.public.Server.plan
        then
          invalid_arg
            "Client.stage2_query: keypool was built for another deployment";
        Keypool.take kp ~index:cred.idq
      | None ->
        Gr.Client.query ~metrics:t.metrics ~plan:t.public.Server.plan
          ~index:cred.idq ~q_bits:t.params.Params.q_bits t.rand
    in
    if reuse then cache_store t cred.idq pir wire;
    { pir; cred }, wire

(* Decrypt and decode a cell's ciphertext block, whichever PIR carried
   it; authentication failure means either a tampered response or a
   key/cell mismatch (a cheating user). *)
let decrypt_block (cred : credential) (blob : string) : Poi.t list =
  let plaintext =
    try Cellcrypt.decrypt ~cell_key:cred.cell_key blob
    with Cellcrypt.Authentication_failure ->
      raise (Protocol_error "stage 2: authentication failure")
  in
  let pois =
    try Poi.decode_block plaintext
    with Invalid_argument _ -> raise (Protocol_error "stage 2: corrupt block")
  in
  List.filter (fun p -> not (Poi.is_dummy p)) pois

let stage2_decode t (st : stage2) (ge : Z.t) : Poi.t list =
  let ci =
    try Gr.Client.decode st.pir ge
    with Invalid_argument _ -> raise (Protocol_error "stage 2: bad response")
  in
  let blob =
    try Z.to_bytes_be_padded ci ~len:(Params.cell_cipher_bytes t.params)
    with Invalid_argument _ -> raise (Protocol_error "stage 2: block too large")
  in
  decrypt_block st.cred blob
