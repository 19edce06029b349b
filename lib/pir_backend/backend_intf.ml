(* The pluggable PIR backend signature: one shape for every private
   retrieval scheme in the repo, so the same driver can run
   Gentry–Ramzan, the Kushilevitz–Ostrovsky QR baseline and the
   small-modulus lattice backend over identical query plans and check
   them against each other byte for byte.

   The database is always a rows x cols grid of equal-length opaque
   blocks (the LBS use case: one encrypted POI block per private cell).
   A round is

     encode  (server, once)   blocks              -> server state
     public  (server, once)   server state        -> setup blob for clients
     query   (client)         (row, col)          -> client state + query
     respond (server)         query               -> response
     decode  (client)         response            -> the block at (row, col)

   Queries and responses are typed; each backend supplies wire codecs
   ([query_encode]/[query_decode], [response_encode]/[response_decode])
   whose round-trip is the identity on honest frames and which raise
   {!Malformed} on anything else — the strict server-side validation of
   PR 1, now a signature obligation.

   Every backend also carries an exact cost oracle: given a decoded
   query, {!predicted_cost} states the wire bytes of that query, the
   wire bytes of the response the server is about to produce, and the
   modular (or, for word-arithmetic backends, machine-word)
   multiplications one [respond] performs.  The differential harness
   asserts predicted = measured on all three. *)

module Counters = Lbq_metrics.Counters

exception Malformed of string

let malformed msg = raise (Malformed msg)

(* Predicted per-round costs, asserted against measured counters and
   measured wire lengths by the differential harness.  [server_mults]
   counts whatever multiplication the backend's hot loop is made of —
   bignum modular mults for Gr/QR, machine-word multiply-accumulates for
   the lattice backend — so cross-backend comparisons must weigh them by
   the unit cost ({!S.mult_kind}). *)
type cost = {
  query_bytes : int;
  response_bytes : int;
  server_mults : int;
}

(* What one [server_mults] unit is, for honest head-to-head tables. *)
type mult_kind = Bignum_modmul | Word_mul

module type S = sig
  (* Short stable identifier ("gr", "qr", "lwe"): registry key, CLI
     selector and bench/JSON label. *)
  val name : string

  val mult_kind : mult_kind

  type server
  type client
  type query
  type response

  (* ---- server setup ---- *)

  (* Deterministic database encoding over a rows x cols grid of
     equal-length blocks.  [rand] feeds any setup randomness (the
     lattice backend's public matrix seed); metrics attach to this
     server for the lifetime of the state. *)
  val encode :
    ?metrics:Counters.t -> rand:(int -> string) -> string array array ->
    server

  val rows : server -> int
  val cols : server -> int
  val block_len : server -> int

  (* Everything a client needs before its first query (grid geometry
     plus backend specifics: the Gr prime-power plan parameters, the
     lattice hint, ...).  Offline bootstrap traffic, like the paper's
     public info download; not part of the per-round cost oracle. *)
  val public : server -> string

  (* ---- client ---- *)

  (* Build the private query for the block at [(row, col)] from the
     [public] blob.  All randomness comes from [rand], so a fixed DRBG
     makes the whole round deterministic. *)
  val query :
    ?metrics:Counters.t -> rand:(int -> string) -> public:string ->
    row:int -> col:int -> unit -> client * query

  (* Recover the block.  Raises [Invalid_argument] when the response is
     provably inconsistent with the instance (tampering). *)
  val decode : client -> response -> string

  (* ---- server ---- *)

  (* Answer a query.  Raises {!Malformed} on queries that fail the
     backend's strict validation (wrong width, out-of-range elements,
     degenerate bases). *)
  val respond : server -> query -> response

  (* Answer k queries in one amortised pass.  The contract is
     byte-identity to the sequential baseline: [respond_batch t qs]
     must produce exactly [Array.map (respond t) qs] — same responses,
     same counter totals, same {!Malformed} on the first invalid query
     — while fusing whatever per-query work the backend can share
     (lwe: matrix panels; qr: one traversal of the database bits).  An
     empty batch returns [[||]].  A backend without a fused kernel maps
     [respond] over the batch, as gr does: its k queries are k ladders,
     since their moduli share no arithmetic. *)
  val respond_batch : server -> query array -> response array

  (* ---- live updates ---- *)

  (* In-place single-block update: [update server ~row ~col ~block]
     replaces the block at (row, col) with [block] (same length as every
     other block) and repairs the server state incrementally — a
     localized fix-up, never a re-encode.  Contract: after any update
     sequence, [respond] and
     [respond_batch] must be byte-identical to a fresh [encode] over
     the updated grid (same setup randomness), and [predicted_cost]
     must stay exact.  Raises [Invalid_argument] on an out-of-range
     target, a wrong-length block, or a block the backend cannot
     represent. *)
  val update : server -> row:int -> col:int -> block:string -> unit

  (* ---- wire codecs ---- *)

  val query_encode : query -> string
  val query_decode : string -> query
  val response_encode : response -> string
  val response_decode : string -> response

  (* ---- cost oracle ---- *)

  val predicted_cost : server -> query -> cost
end

type backend = (module S)

(* ------------------------------------------------------------------ *)
(* Shared wire helpers (fixed-width big-endian, as in Lbq_core.Wire)    *)
(* ------------------------------------------------------------------ *)

let u32 v = String.init 4 (fun k -> Char.chr ((v lsr ((3 - k) * 8)) land 0xff))

let read_u32 s off =
  if off < 0 || off + 4 > String.length s then malformed "truncated u32";
  let v = ref 0 in
  for k = 0 to 3 do
    v := (!v lsl 8) lor Char.code s.[off + k]
  done;
  !v

(* Fixed-width 8-byte words for backends whose elements outgrow u32
   (the lattice backend's q = 2^34 torus words).  Values must fit an
   OCaml int, so the top two bits of an honest frame are always zero;
   [read_u64] rejects anything larger rather than silently wrapping. *)
let u64 v = String.init 8 (fun k -> Char.chr ((v lsr ((7 - k) * 8)) land 0xff))

let read_u64 s off =
  if off < 0 || off + 8 > String.length s then malformed "truncated u64";
  if Char.code s.[off] >= 0x40 then malformed "u64 out of int range";
  let v = ref 0 in
  for k = 0 to 7 do
    v := (!v lsl 8) lor Char.code s.[off + k]
  done;
  !v

let lp (s : string) : string = u32 (String.length s) ^ s

let read_lp s off =
  let len = read_u32 s off in
  if len < 0 || off + 4 + len > String.length s then malformed "truncated field";
  String.sub s (off + 4) len, off + 4 + len

(* Validate a rows x cols block grid and return (rows, cols, block_len).
   Every backend's [encode] funnels through this so the three agree on
   what a database is — including the degenerate shapes the edge-case
   suite drives (1x1, single row/column, empty blocks). *)
let check_blocks ~who (blocks : string array array) : int * int * int =
  let rows = Array.length blocks in
  if rows = 0 then invalid_arg (who ^ ": empty matrix");
  let cols = Array.length blocks.(0) in
  if cols = 0 then invalid_arg (who ^ ": empty row");
  let block_len = String.length blocks.(0).(0) in
  Array.iter
    (fun row ->
      if Array.length row <> cols then invalid_arg (who ^ ": ragged matrix");
      Array.iter
        (fun b ->
          if String.length b <> block_len then
            invalid_arg (who ^ ": blocks must share one length"))
        row)
    blocks;
  rows, cols, block_len

(* The common header of every backend's [public] blob: geometry first,
   backend specifics after.  Encoded/parsed here so the harness can read
   geometry without knowing the backend. *)
let public_header ~rows ~cols ~block_len : string =
  String.concat "" [ u32 rows; u32 cols; u32 block_len ]

let read_public_header (s : string) : int * int * int =
  let rows = read_u32 s 0 in
  let cols = read_u32 s 4 in
  let block_len = read_u32 s 8 in
  if rows <= 0 || cols <= 0 || block_len < 0 then malformed "public geometry";
  rows, cols, block_len

let check_target ~rows ~cols ~row ~col =
  if row < 0 || row >= rows then invalid_arg "Pir_backend.query: row out of range";
  if col < 0 || col >= cols then invalid_arg "Pir_backend.query: col out of range"
