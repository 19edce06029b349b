(* The Location Server (LS).  Global initialisation per §III-B:

   1. partition the POI records into the private grid Q, padded to a
      uniform rmax records per cell;
   2. draw a symmetric key k per cell and encrypt each cell's block;
   3. CRT-encode the encrypted blocks into the single PIR integer e;
   4. run OT initialisation (Algorithm 1) over the public grid P, where
      the payload of P_{i,j} is IDQ ‖ k for the private cell under it;
   5. publish the public info (grid geometry, masked OT table, PIR plan).

   After initialisation the server answers two kinds of messages — an OT
   query (stage 1) and a PIR query (stage 2) — and learns nothing about
   the user's cell from either. *)

open Lbq_bignum
open Lbq_geo
module Ot = Lbq_ot.Ot
module Gr = Lbq_pir.Gr
module Counters = Lbq_metrics.Counters
module Drbg = Lbq_crypto.Drbg

(* The OT payload: IDQ (4 bytes, big-endian) ‖ cell key (16 bytes).
   20 bytes — exactly one SHA-1 digest, as in the paper's masking. *)
let payload_len = 4 + Cellcrypt.key_len

let encode_payload ~idq ~key =
  if String.length key <> Cellcrypt.key_len then
    invalid_arg "Server.encode_payload: key length";
  String.init 4 (fun k -> Char.chr ((idq lsr ((3 - k) * 8)) land 0xff)) ^ key

let decode_payload (s : string) : int * string =
  if String.length s <> payload_len then
    invalid_arg "Server.decode_payload: bad length";
  let idq = ref 0 in
  for k = 0 to 3 do
    idq := (!idq lsl 8) lor Char.code s.[k]
  done;
  !idq, String.sub s 4 Cellcrypt.key_len

(* Everything a user needs before querying (fetched once, like the grid
   dimensions and Y table of the paper). *)
type public_info = {
  params : Params.t;
  area : Coord.Rect.t;
  public_grid : Grid.lattice;
  masked_table : string array array;  (* the OT Y matrix *)
  plan : Gr.plan;                     (* PIR prime-power pattern *)
}

type t = {
  params : Params.t;
  metrics : Counters.t;
  partition : Grid.partition;
  keys : string array;                (* k per private cell *)
  ciphertexts : string array;         (* encrypted block per private cell *)
  mutable epoch : int;                (* +1 per restaged cell *)
  ot : Ot.Server.t;
  pir : Gr.Server.t option Atomic.t;
    (* the CRT encode of [ciphertexts]: current, or [None] once handed
       to a Service shard ({!take_pir}) or dropped by {!restage_cell};
       a master-path read rebuilds it ({!master_pir}) *)
  pir_lock : Mutex.t;
    (* serialises restaging, the rebuild and the hand-off, so a rebuild
       never reads a half-restaged database *)
  max_n_bits : int;                   (* stage-2 modulus bounds, from *)
  min_n_bits : int;                   (* the plan alone *)
  public : public_info;
}

(* Step 3 of the initialisation: CRT-encode every cell's current block
   under the plan.  Run by [create], and again by {!master_pir} when a
   master-path read finds the encode absent. *)
let encode_pir ~metrics plan ciphertexts =
  Gr.Server.create ~metrics plan (Array.map Z.of_bytes_be ciphertexts)

(* Narrowest legitimate modulus: N = Q0 Q1 with Q0 = 2 q0 pi + 1,
   Q1 = 2 q1 + 1 has |N| >= min|pi| + 2 q_bits - 1; keep a few bits of
   slack so no honest query is ever refused. *)
let min_modulus_bits plan ~q_bits =
  let min_pi = ref max_int in
  for i = 0 to Gr.plan_size plan - 1 do
    min_pi := min !min_pi (Z.numbits (Gr.plan_slot plan i).Gr.pi)
  done;
  !min_pi + (2 * q_bits) - 8

let create ?(metrics = Counters.null) (params : Params.t)
    ~(area : Coord.Rect.t) (pois : Poi.t list) : t =
  let drbg = Drbg.create ~domain:"lbq-server" ~seed:params.Params.seed () in
  let rand = Drbg.rand drbg in
  (* 1. Private partition with uniform occupancy. *)
  let partition =
    Grid.partition ~rmax:params.Params.rmax ~area
      ~rows:params.Params.private_rows ~cols:params.Params.private_cols pois
  in
  let cells = Grid.cell_count partition in
  (* 2. Per-cell keys and encrypted blocks. *)
  let keys = Array.init cells (fun _ -> Drbg.bytes drbg Cellcrypt.key_len) in
  let ciphertexts =
    Array.init cells (fun idx ->
        let block = Poi.encode_block (Grid.cell_pois partition idx) in
        Cellcrypt.encrypt ~cell_key:keys.(idx) block)
  in
  (* 3. PIR encoding: one prime-power slot per private cell. *)
  let plan =
    Gr.make_plan ~count:cells ~block_bits:(Params.block_bits params) ()
  in
  let pir = encode_pir ~metrics plan ciphertexts in
  (* 4. OT initialisation over the public grid. *)
  let public_grid =
    Grid.lattice ~area ~rows:params.Params.public_rows
      ~cols:params.Params.public_cols
  in
  let payloads =
    Array.init params.Params.public_rows (fun row ->
        Array.init params.Params.public_cols (fun col ->
            let idq = Grid.associate public_grid partition { Grid.row; col } in
            encode_payload ~idq ~key:keys.(idq)))
  in
  let ot =
    Ot.Server.init ~group:params.Params.group ~rand ~metrics payloads
  in
  let public =
    { params; area; public_grid; masked_table = Ot.Server.masked_table ot; plan }
  in
  let q_bits = params.Params.q_bits in
  { params; metrics; partition; keys; ciphertexts; epoch = 0; ot;
    pir = Atomic.make (Some pir); pir_lock = Mutex.create ();
    max_n_bits = Gr.plan_max_modulus_bits plan ~q_bits;
    min_n_bits = min_modulus_bits plan ~q_bits; public }

let public_info t = t.public
let params t = t.params
let partition t = t.partition
let metrics t = t.metrics

(* The encrypted cell blocks as the private grid they tile: row-major,
   so [.(r).(c)] is the ciphertext of cell IDQ = r * private_cols + c.
   This is the uniform rows x cols x block-bytes database shape every
   {!Lbq_pir_backend.Backend_intf.S} implementation encodes, letting the
   arena re-serve the same database under alternative PIR schemes. *)
let cipher_blocks t : string array array =
  let cols = t.params.Params.private_cols in
  Array.init t.params.Params.private_rows (fun r ->
      Array.init cols (fun c -> t.ciphertexts.((r * cols) + c)))

(* ------------------------------------------------------------------ *)
(* Request validation                                                   *)
(* ------------------------------------------------------------------ *)

(* A production server facing the open network (ROADMAP: heavy traffic
   from millions of users) cannot afford to die — or to burn a modular
   exponentiation at attacker-chosen width — on a hostile query.  Every
   inbound request is validated against the deployment parameters before
   any cryptographic work; failures are *data* (a typed rejection, with
   the [rejects] counter bumped), not exceptions. *)

type rejection =
  | Ot_query_malformed of string
  | Pir_query_malformed of string
  | Pir_modulus_oversized of { bits : int; limit : int }
  | Pir_modulus_undersized of { bits : int; floor : int }
  | Pir_base_degenerate of string

let rejection_message = function
  | Ot_query_malformed m -> "ot query malformed: " ^ m
  | Pir_query_malformed m -> "pir query malformed: " ^ m
  | Pir_modulus_oversized { bits; limit } ->
    Printf.sprintf "pir modulus too wide: %d bits exceeds the %d-bit bound"
      bits limit
  | Pir_modulus_undersized { bits; floor } ->
    Printf.sprintf "pir modulus too narrow: %d bits, need at least %d" bits
      floor
  | Pir_base_degenerate m -> "pir base degenerate: " ^ m

let reject t (r : rejection) : ('a, rejection) result =
  Counters.rejects t.metrics 1;
  Error r

let rejects t = (Counters.snapshot t.metrics).Counters.rejects

(* Widest / narrowest modulus a legitimate query can need, fixed by the
   plan at [create]: the per-query check never touches the encode. *)
let pir_max_modulus_bits t = t.max_n_bits
let pir_min_modulus_bits t = t.min_n_bits

(* Stage-1 message handler.  [rand] substitutes the blinding-exponent
   source for this response (per-request DRBG forking under parallel
   serving); default is the server's own stream. *)
let ot_respond ?rand t (q : Ot.query) : Ot.response =
  Ot.Server.respond ?rand t.ot q

(* Validated stage-1 handler: every ciphertext component must be a
   plausible field element — in (1, p).  Zero would collapse the
   ElGamal blinding; 1 and p-1 are the degenerate subgroup. *)
let ot_respond_checked ?rand t (q : Ot.query) : (Ot.response, rejection) result =
  let p = Lbq_group.Schnorr.p t.params.Params.group in
  let in_range x = Z.gt x Z.one && Z.lt x p in
  let components =
    [ q.Ot.c1.Lbq_group.Elgamal.a; q.Ot.c1.Lbq_group.Elgamal.b;
      q.Ot.c2.Lbq_group.Elgamal.a; q.Ot.c2.Lbq_group.Elgamal.b ]
  in
  if List.for_all in_range components then Ok (Ot.Server.respond ?rand t.ot q)
  else reject t (Ot_query_malformed "ciphertext element outside (1, p)")

(* The master encode for a master-path read ({!pir_respond},
   {!pir_respond_checked}, {!pir_e_bits}): the current one, or — after
   a hand-off or a restage dropped it — one rebuilt from the current
   ciphertexts, built once under the lock and published for the reads
   after it. *)
let master_pir t =
  match Atomic.get t.pir with
  | Some pir -> pir
  | None ->
    Mutex.protect t.pir_lock (fun () ->
        match Atomic.get t.pir with
        | Some pir -> pir
        | None ->
          let pir = encode_pir ~metrics:t.metrics t.public.plan t.ciphertexts in
          Atomic.set t.pir (Some pir);
          pir)

(* Stage-2 message handler, with the deployment-wide modulus bound as a
   resource-exhaustion guard (the g^e cost scales with the query width). *)
let pir_respond t ~(n : Z.t) ~(g : Z.t) : Z.t =
  Gr.Server.respond ~max_n_bits:(pir_max_modulus_bits t) (master_pir t) ~n ~g

(* The stage-2 query check: bound-check |N| both ways (the modulus width
   a legitimate query needs does not depend on which shard answers),
   insist N is odd (a product of two odd primes always is), and refuse
   the degenerate bases 0, 1 and N-1 (orders 0, 1 and 2 — each would
   make the answer g^e mod N independent of nearly all of e). *)
let pir_query_rejection t =
  let limit = pir_max_modulus_bits t in
  let floor = pir_min_modulus_bits t in
  fun ((n : Z.t), (g : Z.t)) ->
    let bits = Z.numbits n in
    if bits > limit then Some (Pir_modulus_oversized { bits; limit })
    else if bits < floor then Some (Pir_modulus_undersized { bits; floor })
    else if Z.is_even n then Some (Pir_query_malformed "modulus is even")
    else if Z.leq g Z.one then Some (Pir_base_degenerate "g <= 1")
    else if Z.geq g (Z.pred n) then Some (Pir_base_degenerate "g >= N - 1")
    else None

(* Validated stage-2 handler against [pir] (the main database or one
   shard of {!pir_shards}), query by query: an invalid query becomes a
   typed rejection (bumping [rejects]), a valid one is answered by
   {!Gr.Server.respond}.  Results are positional. *)
let pir_respond_shard_checked_batch t (pir : Gr.Server.t)
    (queries : (Z.t * Z.t) array) : (Z.t, rejection) result array =
  let rejection = pir_query_rejection t in
  Array.map
    (fun ((n, g) as q) ->
      match rejection q with
      | Some r -> reject t r
      | None -> Ok (Gr.Server.respond pir ~n ~g))
    queries

let pir_respond_checked t ~(n : Z.t) ~(g : Z.t) : (Z.t, rejection) result =
  (pir_respond_shard_checked_batch t (master_pir t) [| (n, g) |]).(0)

(* The CRT database integer (diagnostics; |e| drives the stage-2 cost). *)
let pir_e_bits t = Gr.Server.e_bits (master_pir t)

(* ------------------------------------------------------------------ *)
(* Sharded stage-2 serving                                              *)
(* ------------------------------------------------------------------ *)

(* Which shard serves private cell [idq] under [shards]-way striping.
   This is a *published deployment convention*: the client derives it
   locally from the credential's IDQ and addresses its stage-2 query to
   that shard.  The privacy trade is explicit — the LS learns idq mod
   shards, shrinking the cell anonymity set from t to ~t/shards, in
   exchange for each shard's e_d (and thus each respond) being ~1/shards
   of the full database.  The phi-hiding argument within a shard is
   untouched. *)
let shard_of_cell ~shards idq =
  if shards <= 0 then invalid_arg "Server.shard_of_cell: shards <= 0";
  idq mod shards

(* The stage-2 database striped into [count] sub-servers: shard d
   CRT-encodes the cells {i | i mod count = d} under the restricted
   plan, so each carries its own ~|e|/count integer and its own cached
   window schedule (recoded once here, at shard build).  Striping (vs
   contiguous ranges) keeps shard load uniform for any spatially
   clustered query mix, since neighbouring cells land on different
   shards. *)
let pir_shards t ~count : Gr.Server.t array =
  let cells = Array.length t.ciphertexts in
  if count <= 0 || count > cells then
    invalid_arg "Server.pir_shards: count must be in [1, cells]";
  let plan = t.public.plan in
  Array.init count (fun d ->
      let indices =
        Array.of_list
          (List.filter (fun i -> i mod count = d)
             (List.init cells (fun i -> i)))
      in
      encode_pir ~metrics:t.metrics (Gr.plan_restrict plan ~indices)
        (Array.map (fun i -> t.ciphertexts.(i)) indices))

(* Hand the whole-database encode to a caller that owns it from now on
   (a one-shard Service serves from it and repairs it at its fences):
   the master's current encode — or a fresh one when it is absent —
   leaving the master absent, so the master never shares a mutable
   encode and a later master-path read rebuilds its own. *)
let take_pir t =
  Mutex.protect t.pir_lock (fun () ->
      match Atomic.exchange t.pir None with
      | Some pir -> pir
      | None -> encode_pir ~metrics:t.metrics t.public.plan t.ciphertexts)

(* ------------------------------------------------------------------ *)
(* Streaming POI updates                                                *)
(* ------------------------------------------------------------------ *)

(* The content half of an update: replace private cell [idq]'s real
   POIs, re-pad its partition bucket to rmax and re-encrypt its block
   under the SAME cell key (so the published OT table and every issued
   credential stay valid — an update rewrites content, not
   credentials), then advance the content epoch.  Caller holds
   [pir_lock]. *)
let restage t ~idq (pois : Poi.t list) =
  Grid.set_cell_pois t.partition idq pois;
  let block = Poi.encode_block (Grid.cell_pois t.partition idq) in
  t.ciphertexts.(idq) <- Cellcrypt.encrypt ~cell_key:t.keys.(idq) block;
  t.epoch <- t.epoch + 1;
  Counters.update_blocks t.metrics 1

(* Restage, then repair a current master encode in place — one
   leaf-width product times the cached M / pi, divided out once on the
   cell's first update ({!Gr.Server.update_block}), never a full
   rebuild.  An absent encode stays absent: the next master-path
   read rebuilds it from the restaged ciphertexts. *)
let update_cell t ~idq (pois : Poi.t list) : unit =
  Mutex.protect t.pir_lock (fun () ->
      restage t ~idq pois;
      match Atomic.get t.pir with
      | Some pir ->
        Gr.Server.update_block pir ~idx:idq
          ~block:(Z.of_bytes_be t.ciphertexts.(idq))
      | None -> ())

(* Restage only, for a caller whose own encodes take the change (the
   Service's shards, at their fences): any master encode is dropped
   rather than repaired, since no reply reads it until a master-path
   read rebuilds it. *)
let restage_cell t ~idq (pois : Poi.t list) : unit =
  Mutex.protect t.pir_lock (fun () ->
      restage t ~idq pois;
      Atomic.set t.pir None)

(* Content epoch of the stage-2 database: +1 per restaged cell, whether
   or not a master encode took the change. *)
let pir_epoch t = t.epoch

(* Current encrypted block of one cell (immutable string, so holding the
   result is a stable snapshot across later updates) — what the serving
   layer captures when staging a shard fix-up. *)
let cell_ciphertext t idq =
  if idq < 0 || idq >= Array.length t.ciphertexts then
    invalid_arg "Server.cell_ciphertext: idq out of range";
  t.ciphertexts.(idq)

(* Introspection used by tests and examples; a real deployment would keep
   these private, which is why they sit behind explicit "trusted" names. *)
let trusted_cell_key t idq = t.keys.(idq)
let trusted_cell_pois t idq = Grid.cell_pois t.partition idq
