(** The Location Server: global initialisation (§III-B) and the two
    message handlers (OT stage, PIR stage). *)

open Lbq_bignum
open Lbq_geo
module Ot = Lbq_ot.Ot
module Gr = Lbq_pir.Gr
module Counters = Lbq_metrics.Counters

(** Bytes of one OT payload: IDQ (4) ‖ cell key (16). *)
val payload_len : int

val encode_payload : idq:int -> key:string -> string
val decode_payload : string -> int * string

(** What a user fetches once before querying: grid geometry, the masked OT
    table, and the PIR prime-power plan. *)
type public_info = {
  params : Params.t;
  area : Coord.Rect.t;
  public_grid : Grid.lattice;
  masked_table : string array array;
  plan : Gr.plan;
}

type t

(** Initialise the server over its POI database: partition, encrypt cells,
    CRT-encode, run OT init.  Raises [Invalid_argument] when a private
    cell holds more than [params.rmax] records. *)
val create :
  ?metrics:Counters.t -> Params.t -> area:Coord.Rect.t -> Poi.t list -> t

val public_info : t -> public_info
val params : t -> Params.t
val partition : t -> Grid.partition
val metrics : t -> Counters.t

(** The per-cell encrypted blocks as a row-major [private_rows] x
    [private_cols] grid ([.(r).(c)] = ciphertext of IDQ [r * cols + c]) —
    the database shape the pluggable PIR backends encode.  Blocks are
    uniform at [Params.cell_cipher_bytes] bytes. *)
val cipher_blocks : t -> string array array

(** {2 Request validation}

    Typed rejections for hostile or malformed queries.  The checked
    handlers validate every inbound request against the deployment
    parameters before any cryptographic work; a failure increments the
    server's [Counters.rejects] and comes back as data, never an
    exception. *)

type rejection =
  | Ot_query_malformed of string
  | Pir_query_malformed of string
  | Pir_modulus_oversized of { bits : int; limit : int }
  | Pir_modulus_undersized of { bits : int; floor : int }
  | Pir_base_degenerate of string

val rejection_message : rejection -> string

(** Record a rejection decided outside the server (e.g. a wire-decode
    failure in the transport layer): bumps the [rejects] counter. *)
val reject : t -> rejection -> ('a, rejection) result

(** Rejections recorded so far (the server metrics' [rejects] field). *)
val rejects : t -> int

(** Widest / narrowest modulus a legitimate stage-2 query can use. *)
val pir_max_modulus_bits : t -> int

val pir_min_modulus_bits : t -> int

(** Stage-1 handler (Algorithm 2, server side).  [rand] substitutes the
    blinding-exponent source for this response — per-request DRBG
    forking under parallel serving; default is the server's stream. *)
val ot_respond : ?rand:(int -> string) -> t -> Ot.query -> Ot.response

(** Validated stage-1 handler: rejects ciphertext components outside
    (1, p). *)
val ot_respond_checked :
  ?rand:(int -> string) -> t -> Ot.query -> (Ot.response, rejection) result

(** Stage-2 handler (Algorithm 3, server side): [g^e mod N]. *)
val pir_respond : t -> n:Z.t -> g:Z.t -> Z.t

(** Validated stage-2 handler: bound-checks |N| both ways, requires N
    odd, and refuses the degenerate bases g ∈ {0, 1, N−1}. *)
val pir_respond_checked : t -> n:Z.t -> g:Z.t -> (Z.t, rejection) result

(** Batched validated handler against the given sub-server (one shard
    of {!pir_shards}): every [(N, g)] is checked exactly as in
    {!pir_respond_checked} (invalid queries yield the same typed
    rejections, each bumping [rejects]), then all valid ones are
    answered [g{^e_d} mod N] through one walk of the shard's cached
    schedule ({!Gr.Server.respond_batch}).  Results are positional. *)
val pir_respond_shard_checked_batch :
  t -> Gr.Server.t -> (Z.t * Z.t) array -> (Z.t, rejection) result array

(** Width of the CRT database integer (drives stage-2 server cost). *)
val pir_e_bits : t -> int

(** {2 Sharded stage-2 serving}

    The private grid striped [count] ways: shard [d] CRT-encodes the
    cells [{i | i mod count = d}], so its database integer [e_d] — and
    every respond it answers — is ~1/count of the whole.  Shard
    assignment is a published deployment convention the client computes
    from its credential ([shard_of_cell]); the explicit privacy trade is
    that the LS learns [idq mod count], shrinking the cell anonymity set
    t to ~t/count, while phi-hiding within the shard is untouched.  Each
    sub-server recodes its own window schedule once at build. *)

val shard_of_cell : shards:int -> int -> int

val pir_shards : t -> count:int -> Gr.Server.t array

(** {2 Streaming POI updates}

    A single-cell change is a localized fix-up, never a rebuild: the
    partition bucket is re-padded, the block re-encrypted under the SAME
    cell key (the published OT table and issued credentials stay valid),
    and the CRT integer repaired through the retained product tree. *)

(** Replace cell [idq]'s real POIs.  Raises [Invalid_argument] on an
    out-of-range cell, a dummy or out-of-cell record, or rmax
    overflow.  Bumps the main PIR server's epoch. *)
val update_cell : t -> idq:int -> Poi.t list -> unit

(** Update generation of the stage-2 database ({!Gr.Server.epoch} of
    the main PIR server): 0 at creation, +1 per {!update_cell}. *)
val pir_epoch : t -> int

(** Current encrypted block of cell [idq] (an immutable snapshot:
    later updates replace, never mutate, the stored string). *)
val cell_ciphertext : t -> int -> string

(** Trusted introspection for tests and examples only. *)
val trusted_cell_key : t -> int -> string

val trusted_cell_pois : t -> int -> Poi.t list
