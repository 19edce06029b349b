(* Gentry–Ramzan behind the {!Backend_intf.S} signature.

   A thin adapter over {!Lbq_pir.Gr} — all number theory stays there, so
   the seed oracles and byte-level behaviour of the underlying scheme
   are untouched.  The grid cell (row, col) maps to plan slot
   [row * cols + col] (the same row-major flattening the protocol uses
   for IDQ), each block becomes the big-endian integer record of its
   slot, and the prime-power plan is rebuilt deterministically on the
   client from the (count, block_bits) pair in the public blob — the
   "predictable pattern" of §III-B, exactly as [Wire.public_info_decode]
   already does for the main protocol. *)

open Lbq_bignum
module B = Backend_intf
module Gr = Lbq_pir.Gr
module Counters = Lbq_metrics.Counters

module type CONFIG = sig
  (* Width of the phi-hiding cofactor primes q0, q1 (paper: 128). *)
  val q_bits : int
end

(* Hard cap on a serialized PIR integer, as in [Wire.max_pir_int_len]:
   far above any deployment's modulus, low enough that a hostile length
   field cannot demand megabyte exponentiations. *)
let max_int_len = 1 lsl 20

module Make (C : CONFIG) : B.S = struct
  let name = "gr"
  let mult_kind = B.Bignum_modmul

  type server = {
    gr : Gr.Server.t;
    rows : int;
    cols : int;
    block_len : int;
    block_bits : int;
  }

  type client = { st : Gr.Client.state; block_len : int }

  type query = { n : Z.t; g : Z.t }

  (* [pad] (the response element width, |N| in bytes) rides along so the
     wire form — the answer padded to the modulus width, as the main
     protocol ships it — re-encodes to identical bytes. *)
  type response = { pad : int; ge : Z.t }

  let plan_of ~cells ~block_bits = Gr.make_plan ~count:cells ~block_bits ()

  let encode ?metrics ~rand:_ (blocks : string array array) : server =
    let rows, cols, block_len = B.check_blocks ~who:"Gr_backend.encode" blocks in
    (* A record must be strictly below its slot's prime power; capacity
       block_bits = 8 * block_len guarantees that (make_plan grows each
       slot past block_bits bits), with a 1-bit floor for empty blocks. *)
    let block_bits = max 1 (8 * block_len) in
    let plan = plan_of ~cells:(rows * cols) ~block_bits in
    let records =
      Array.init (rows * cols) (fun i ->
          Z.of_bytes_be blocks.(i / cols).(i mod cols))
    in
    { gr = Gr.Server.create ?metrics plan records; rows; cols; block_len;
      block_bits }

  let rows (t : server) = t.rows
  let cols (t : server) = t.cols
  let block_len (t : server) = t.block_len

  let public t =
    String.concat ""
      [ B.public_header ~rows:t.rows ~cols:t.cols ~block_len:t.block_len;
        B.u32 C.q_bits; B.u32 t.block_bits ]

  let query ?metrics ~rand ~public ~row ~col () : client * query =
    let rows, cols, block_len = B.read_public_header public in
    let q_bits = B.read_u32 public 12 in
    let block_bits = B.read_u32 public 16 in
    if q_bits <> C.q_bits then B.malformed "q_bits mismatch";
    if block_bits <= 0 then B.malformed "block_bits";
    B.check_target ~rows ~cols ~row ~col;
    let plan = plan_of ~cells:(rows * cols) ~block_bits in
    let st, (n, g) =
      Gr.Client.query ?metrics ~plan ~index:((row * cols) + col) ~q_bits rand
    in
    { st; block_len }, { n; g }

  let decode (c : client) (r : response) : string =
    let v = Gr.Client.decode c.st r.ge in
    Z.to_bytes_be_padded v ~len:c.block_len

  let respond (t : server) (q : query) : response =
    let max_n_bits = Gr.Server.max_modulus_bits t.gr ~q_bits:C.q_bits in
    let ge =
      try Gr.Server.respond ~max_n_bits t.gr ~n:q.n ~g:q.g
      with Invalid_argument m -> B.malformed m
    in
    { pad = (Z.numbits q.n + 7) / 8; ge }

  (* k ladders on the server's cached exponent schedule
     ({!Gr.Server.respond_batch}): the queries' moduli share no
     arithmetic, so there is nothing to fuse.  Every query is validated
     before any work; responses and per-query counter bumps match k
     sequential [respond]s exactly. *)
  let respond_batch (t : server) (qs : query array) : response array =
    let max_n_bits = Gr.Server.max_modulus_bits t.gr ~q_bits:C.q_bits in
    let ges =
      try
        Gr.Server.respond_batch ~max_n_bits t.gr
          (Array.map (fun q -> (q.n, q.g)) qs)
      with Invalid_argument m -> B.malformed m
    in
    Array.mapi
      (fun i ge -> { pad = (Z.numbits qs.(i).n + 7) / 8; ge })
      ges

  (* Native incremental update: the new block becomes slot
     [row * cols + col]'s record and {!Gr.Server.update_block} repairs
     [e] by one leaf-width product times M / pi plus a schedule
     refresh, never a full re-encode.  The record value equals what a
     fresh [encode] would compute, so responses are byte-identical to
     a rebuilt server's. *)
  let update (t : server) ~row ~col ~(block : string) =
    if row < 0 || row >= t.rows || col < 0 || col >= t.cols then
      invalid_arg "Gr_backend.update: target out of range";
    if String.length block <> t.block_len then
      invalid_arg "Gr_backend.update: block length";
    Gr.Server.update_block t.gr ~idx:((row * t.cols) + col)
      ~block:(Z.of_bytes_be block)

  (* ---- wire: the (N, g) pair with explicit lengths, as in
     [Wire.pir_query_encode]; the response is the answer padded to the
     modulus width it was computed under, length-prefixed so the decoder
     is self-contained. *)

  let int_field (z : Z.t) = B.lp (Z.to_bytes_be z)

  let read_int_field ~what s off =
    let b, off' = B.read_lp s off in
    let len = String.length b in
    if len = 0 || len > max_int_len then B.malformed (what ^ " length");
    (* Reject padded (non-minimal) encodings: round-trip must be the
       identity, and a re-encode strips leading zero bytes (zero itself
       re-encodes as the empty field). *)
    if b.[0] = '\000' then B.malformed (what ^ " not canonical");
    Z.of_bytes_be b, off'

  let query_encode (q : query) : string = int_field q.n ^ int_field q.g

  let query_decode (s : string) : query =
    let n, off = read_int_field ~what:"gr query N" s 0 in
    let g, off = read_int_field ~what:"gr query g" s off in
    if off <> String.length s then B.malformed "gr query length";
    { n; g }

  let response_encode (r : response) : string =
    B.u32 r.pad
    ^ (try Z.to_bytes_be_padded r.ge ~len:r.pad
       with Invalid_argument _ -> B.malformed "gr response out of range")

  let response_decode (s : string) : response =
    let pad = B.read_u32 s 0 in
    if pad > max_int_len then B.malformed "gr response length";
    if String.length s <> 4 + pad then B.malformed "gr response length";
    { pad; ge = Z.of_bytes_be (String.sub s 4 pad) }

  (* Exact on honest (odd-modulus) queries: the server replays the
     window schedule cached at [encode] under Montgomery REDC, so the
     multiplication count is the schedule cost plus one conversion —
     [Gr.Server.predicted_mults], the updated Table II closed form. *)
  let predicted_cost (t : server) (q : query) : B.cost =
    { query_bytes = String.length (query_encode q);
      response_bytes = 4 + ((Z.numbits q.n + 7) / 8);
      server_mults = Gr.Server.predicted_mults t.gr }
end

(* Registry default: the test deployment's 24-bit cofactors.  Arena and
   bench instantiate [Make] with their own deployment widths. *)
module Default = Make (struct let q_bits = 24 end)

let default : B.backend = (module Default)
