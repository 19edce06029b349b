(* Kushilevitz–Ostrovsky quadratic-residuosity PIR behind the
   {!Backend_intf.S} signature.

   A thin adapter over {!Lbq_qrpir.Qr_pir}: the matrix shape is already
   the signature's rows x cols block grid, so the port is mostly wire
   framing.  The client owns the Blum modulus and its factorisation — a
   fresh keypair is drawn per query from the caller's DRBG (the modulus
   travels with the query, the server holds no key material), keeping
   rounds unlinkable just like a fresh phi-hiding instance does for Gr. *)

open Lbq_bignum
module B = Backend_intf
module Qr_pir = Lbq_qrpir.Qr_pir
module Counters = Lbq_metrics.Counters

module type CONFIG = sig
  (* Blum modulus width (the baseline's L); tests use 128. *)
  val modulus_bits : int
end

let max_element_len = 1 lsl 16
let max_cols = 1 lsl 20

module Make (C : CONFIG) : B.S = struct
  let name = "qr"
  let mult_kind = B.Bignum_modmul

  type server = {
    qr : Qr_pir.Server.t;
    rows : int;
    cols : int;
    block_len : int;
    mutable mults_per_respond : int;
      (* popcount-derived; patched by [update] so the oracle tracks the
         live database *)
  }

  type client = {
    st : Qr_pir.Client.state;
    row : int;
    rows : int;
    block_len : int;
  }

  (* [el] is the fixed element width (|N| in bytes) every element of the
     frame is padded to; carrying it in the type makes the wire
     round-trip the identity. *)
  type query = { el : int; n : Z.t; ys : Z.t array }
  type response = { el : int; planes : Z.t array array }

  let popcount_byte =
    (* 256-entry table; blocks are popcounted once at encode for the
       exact multiplication oracle. *)
    Array.init 256 (fun b ->
        let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + (v land 1)) in
        go b 0)

  let encode ?metrics ~rand:_ (blocks : string array array) : server =
    let rows, cols, block_len = B.check_blocks ~who:"Qr_backend.encode" blocks in
    (* Per (plane, row, col) the server performs one accumulate multiply
       plus one squaring when the bit is 0: sum (2 - bit) overall. *)
    let ones = ref 0 in
    Array.iter
      (fun r ->
        Array.iter
          (fun b -> String.iter (fun ch -> ones := !ones + popcount_byte.(Char.code ch)) b)
          r)
      blocks;
    let planes = 8 * block_len in
    let mults_per_respond = (2 * planes * rows * cols) - !ones in
    { qr = Qr_pir.Server.create ?metrics blocks; rows; cols; block_len;
      mults_per_respond }

  let rows (t : server) = t.rows
  let cols (t : server) = t.cols
  let block_len (t : server) = t.block_len

  let public (t : server) =
    B.public_header ~rows:t.rows ~cols:t.cols ~block_len:t.block_len
    ^ B.u32 C.modulus_bits

  let query ?metrics ~rand ~public ~row ~col () : client * query =
    let rows, cols, block_len = B.read_public_header public in
    if B.read_u32 public 12 <> C.modulus_bits then B.malformed "modulus bits";
    B.check_target ~rows ~cols ~row ~col;
    let sk = Qr_pir.keygen ~bits:C.modulus_bits rand in
    let st, ys = Qr_pir.Client.query ?metrics ~sk ~cols ~target_col:col rand in
    let n = Qr_pir.modulus (Qr_pir.public_of_private sk) in
    { st; row; rows; block_len }, { el = (Z.numbits n + 7) / 8; n; ys }

  let decode (c : client) (r : response) : string =
    if Array.length r.planes <> 8 * c.block_len then
      invalid_arg "Qr_backend.decode: plane count";
    Array.iter
      (fun plane ->
        if Array.length plane <> c.rows then
          invalid_arg "Qr_backend.decode: plane width")
      r.planes;
    Qr_pir.Client.decode_block c.st r.planes ~target_row:c.row

  (* Strict query validation, before any work. *)
  let check (t : server) (q : query) =
    if Array.length q.ys <> t.cols then B.malformed "qr query width";
    if Z.leq q.n Z.one || Z.is_even q.n then B.malformed "qr modulus";
    Array.iter
      (fun y ->
        if Z.sign y <= 0 || Z.geq y q.n then B.malformed "qr element out of range")
      q.ys

  (* Fused batch: one traversal of the database bits serves all k
     queries ({!Qr_pir.Server.respond_batch}), preserving each query's
     own multiplication order — answers and counters byte-identical to
     k sequential [respond]s.  Every query is checked before any work. *)
  let respond_batch (t : server) (qs : query array) : response array =
    Array.iter (check t) qs;
    let planes_arr =
      try Qr_pir.Server.respond_batch t.qr (Array.map (fun q -> (q.n, q.ys)) qs)
      with Invalid_argument m -> B.malformed m
    in
    Array.mapi (fun i planes -> { el = qs.(i).el; planes }) planes_arr

  (* One query is a batch of one, which {!Qr_pir.Server.respond} is too. *)
  let respond (t : server) (q : query) : response =
    (respond_batch t [| q |]).(0)

  let popcount_str s =
    let acc = ref 0 in
    String.iter (fun ch -> acc := !acc + popcount_byte.(Char.code ch)) s;
    !acc

  (* Incremental update: the QR server holds the raw blocks, so the swap
     is one store ({!Qr_pir.Server.set_block}); the only derived state is
     the popcount-based multiplication oracle, repaired from the old and
     new blocks' bit counts alone. *)
  let update (t : server) ~row ~col ~(block : string) =
    if row < 0 || row >= t.rows || col < 0 || col >= t.cols then
      invalid_arg "Qr_backend.update: target out of range";
    if String.length block <> t.block_len then
      invalid_arg "Qr_backend.update: block length";
    let old = Qr_pir.Server.block t.qr ~row ~col in
    Qr_pir.Server.set_block t.qr ~row ~col block;
    t.mults_per_respond <-
      t.mults_per_respond + popcount_str old - popcount_str block

  (* ---- wire: fixed-width elements under an (el, count) header ---- *)

  let element ~el (z : Z.t) : string =
    try Z.to_bytes_be_padded z ~len:el
    with Invalid_argument _ -> B.malformed "qr element too wide"

  let query_encode (q : query) : string =
    let buf = Buffer.create (8 + ((1 + Array.length q.ys) * q.el)) in
    Buffer.add_string buf (B.u32 q.el);
    Buffer.add_string buf (B.u32 (Array.length q.ys));
    Buffer.add_string buf (element ~el:q.el q.n);
    Array.iter (fun y -> Buffer.add_string buf (element ~el:q.el y)) q.ys;
    Buffer.contents buf

  let query_decode (s : string) : query =
    let el = B.read_u32 s 0 in
    let cols = B.read_u32 s 4 in
    if el = 0 || el > max_element_len then B.malformed "qr query element width";
    if cols = 0 || cols > max_cols then B.malformed "qr query count";
    if String.length s <> 8 + ((1 + cols) * el) then B.malformed "qr query length";
    let at i = Z.of_bytes_be (String.sub s (8 + (i * el)) el) in
    let n = at 0 in
    (* The declared width must be N's own width, or a re-encode would
       repad and change bytes. *)
    if (Z.numbits n + 7) / 8 <> el then B.malformed "qr query N width";
    { el; n; ys = Array.init cols (fun j -> at (j + 1)) }

  let response_encode (r : response) : string =
    let nplanes = Array.length r.planes in
    let rows = if nplanes = 0 then 0 else Array.length r.planes.(0) in
    let buf = Buffer.create (12 + (nplanes * rows * r.el)) in
    Buffer.add_string buf (B.u32 r.el);
    Buffer.add_string buf (B.u32 nplanes);
    Buffer.add_string buf (B.u32 rows);
    Array.iter
      (fun plane ->
        if Array.length plane <> rows then B.malformed "qr response ragged";
        Array.iter (fun z -> Buffer.add_string buf (element ~el:r.el z)) plane)
      r.planes;
    Buffer.contents buf

  let response_decode (s : string) : response =
    let el = B.read_u32 s 0 in
    let nplanes = B.read_u32 s 4 in
    let rows = B.read_u32 s 8 in
    if el = 0 || el > max_element_len then B.malformed "qr response element width";
    if nplanes > max_cols || rows > max_cols then B.malformed "qr response counts";
    if String.length s <> 12 + (nplanes * rows * el) then
      B.malformed "qr response length";
    let planes =
      Array.init nplanes (fun p ->
          Array.init rows (fun r ->
              let off = 12 + (((p * rows) + r) * el) in
              Z.of_bytes_be (String.sub s off el)))
    in
    { el; planes }

  (* Exact: per (plane, row, col) the server multiplies the accumulator
     once and squares once iff the database bit is 0, so the count is a
     pure function of the block bits popcounted at [encode] — no
     dependence on the query beyond its width being valid. *)
  let predicted_cost (t : server) (q : query) : B.cost =
    let planes = 8 * t.block_len in
    { query_bytes = 8 + ((1 + t.cols) * q.el);
      response_bytes = 12 + (planes * t.rows * q.el);
      server_mults = t.mults_per_respond }
end

(* Registry default: 128-bit Blum moduli, the width the existing QR
   tests exercise. *)
module Default = Make (struct let modulus_bits = 128 end)

let default : B.backend = (module Default)
