(* Kushilevitz–Ostrovsky PIR based on quadratic residuosity (FOCS'97) —
   the stage-2 building block of the Ghinita et al. baseline that the
   paper compares against (§V, Table II).

   The database is an a-row × b-column matrix.  To fetch column j*, the
   user sends one number per column: a random QR for every j <> j* and a
   pseudo-square (Jacobi symbol +1 but a non-residue) for j*.  For each
   row the server multiplies together y_j for matrix bits 1 and y_j^2 for
   bits 0; the row product is a QR iff the target bit is 0.  Only the user
   (who knows the factorisation of N) can test residuosity.

   Blocks of s bits are retrieved bit-plane by bit-plane: the server
   computes one row-product per (row, bit position), i.e. a*b*s modular
   multiplications, and ships a*s group elements — the O(sqrt(t)) matrix
   traffic that Table II contrasts with Gentry–Ramzan's two elements. *)

open Lbq_bignum
open Lbq_numth
module Counters = Lbq_metrics.Counters

(* ------------------------------------------------------------------ *)
(* Keys                                                                 *)
(* ------------------------------------------------------------------ *)

type public_key = { n : Z.t; ctx : Montgomery.t }

type private_key = { pub : public_key; p : Z.t; q : Z.t }

let public_of_private sk = sk.pub
let modulus pk = pk.n

(* Blum-style modulus: p, q = 3 (mod 4) makes -1 a canonical pseudo-square,
   but we draw pseudo-squares generically via Legendre checks anyway. *)
let keygen ~bits rand =
  let half = bits / 2 in
  let rec blum_prime () =
    let p = Primegen.random_prime ~bits:half rand in
    if Z.to_int (Z.erem p (Z.of_int 4)) = 3 then p else blum_prime ()
  in
  let p = blum_prime () in
  let rec distinct () =
    let q = blum_prime () in
    if Z.equal p q then distinct () else q
  in
  let q = distinct () in
  let n = Z.mul p q in
  { pub = { n; ctx = Montgomery.create n }; p; q }

(* Is x a quadratic residue mod N?  Requires the factorisation. *)
let is_qr sk (x : Z.t) : bool =
  Jacobi.legendre x sk.p = 1 && Jacobi.legendre x sk.q = 1

(* Random unit square mod N. *)
let random_qr pk rand =
  let rec go () =
    let r = Z.random_unit ~bound:pk.n rand in
    if Z.equal (Z.gcd r pk.n) Z.one then Montgomery.mulmod pk.ctx r r else go ()
  in
  go ()

(* Random pseudo-square: Jacobi +1, Legendre -1 mod both factors. *)
let random_pseudo_square sk rand =
  let pk = sk.pub in
  let rec go () =
    let u = Z.random_unit ~bound:pk.n rand in
    if Z.equal (Z.gcd u pk.n) Z.one
       && Jacobi.legendre u sk.p = -1 && Jacobi.legendre u sk.q = -1
    then u
    else go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Protocol                                                             *)
(* ------------------------------------------------------------------ *)

module Client = struct
  type state = { sk : private_key; target_col : int; metrics : Counters.t }

  (* One element per column; only the target column gets a non-residue. *)
  let query ?(metrics = Counters.null) ~sk ~cols ~target_col rand
    : state * Z.t array =
    if target_col < 0 || target_col >= cols then
      invalid_arg "Qr_pir.Client.query: column out of range";
    let pk = sk.pub in
    let q =
      Array.init cols (fun j ->
          if j = target_col then random_pseudo_square sk rand
          else random_qr pk rand)
    in
    Counters.user_bytes metrics (cols * ((Z.numbits pk.n + 7) / 8));
    { sk; target_col; metrics }, q

  let target_col st = st.target_col
  let metrics st = st.metrics

  (* The bit at [target_row] of one bit-plane answer. *)
  let decode_bit (st : state) (z : Z.t array) ~target_row : bool =
    if target_row < 0 || target_row >= Array.length z then
      invalid_arg "Qr_pir.Client.decode_bit: row out of range";
    not (is_qr st.sk z.(target_row))

  (* Reassemble a whole block (one bit per plane, MSB-first). *)
  let decode_block (st : state) (planes : Z.t array array) ~target_row : string
    =
    let nbits = Array.length planes in
    if nbits mod 8 <> 0 then invalid_arg "Qr_pir.Client.decode_block: bits";
    let nbytes = nbits / 8 in
    String.init nbytes (fun byte ->
        let v = ref 0 in
        for bit = 0 to 7 do
          let plane = planes.((byte * 8) + bit) in
          v := (!v lsl 1) lor (if decode_bit st plane ~target_row then 1 else 0)
        done;
        Char.chr !v)
end

module Server = struct
  (* The server holds no key material: the modulus arrives with each
     query (the client owns N and its factorisation). *)
  type t = {
    rows : int;
    cols : int;
    block_len : int;               (* bytes per block *)
    blocks : string array array;   (* rows x cols *)
    metrics : Counters.t;
  }

  let create ?(metrics = Counters.null) (blocks : string array array) =
    let rows = Array.length blocks in
    if rows = 0 then invalid_arg "Qr_pir.Server.create: empty matrix";
    let cols = Array.length blocks.(0) in
    if cols = 0 then invalid_arg "Qr_pir.Server.create: empty row";
    let block_len = String.length blocks.(0).(0) in
    Array.iter
      (fun row ->
        if Array.length row <> cols then
          invalid_arg "Qr_pir.Server.create: ragged matrix";
        Array.iter
          (fun b ->
            if String.length b <> block_len then
              invalid_arg "Qr_pir.Server.create: blocks must share one length")
          row)
      blocks;
    { rows; cols; block_len; blocks; metrics }

  let rows t = t.rows
  let cols t = t.cols
  let block_len t = t.block_len

  let block t ~row ~col =
    if row < 0 || row >= t.rows || col < 0 || col >= t.cols then
      invalid_arg "Qr_pir.Server.block: out of range";
    t.blocks.(row).(col)

  (* Streaming update: the server holds the raw blocks (no key material,
     no derived encoding), so a single-block change is one array store.
     Responses after the swap are byte-identical to a server rebuilt
     from the updated matrix. *)
  let set_block t ~row ~col (b : string) =
    if row < 0 || row >= t.rows || col < 0 || col >= t.cols then
      invalid_arg "Qr_pir.Server.set_block: out of range";
    if String.length b <> t.block_len then
      invalid_arg "Qr_pir.Server.set_block: block length";
    t.blocks.(row).(col) <- b

  let bit t ~row ~col ~plane =
    let byte = plane / 8 and off = plane mod 8 in
    (Char.code t.blocks.(row).(col).[byte] lsr (7 - off)) land 1 = 1

  (* Answer k queries — each carrying its own modulus — with ONE
     traversal of the database bits: every (plane, row, col) bit is read
     and branched on once and applied to all k accumulators, instead of
     once per query.  Each query runs on its own Montgomery context (a
     Blum modulus is odd), its elements converted to windows once,
     before the counter is attached; from there every modular product
     is one ticked window product: per (plane, row, col) one accumulate
     plus one squaring when the bit is 0, the Table II server cost.
     Each accumulator picks up exactly the factors, in exactly the
     sequence, a one-query call would give it, so answers and per-query
     measured mults are identical to k sequential [respond]s.  Every
     query is validated before any work. *)
  let respond_batch t (queries : (Z.t * Z.t array) array)
    : Z.t array array array =
    Array.iter
      (fun ((n : Z.t), (q : Z.t array)) ->
        if Z.leq n Z.one || Z.is_even n then
          invalid_arg "Qr_pir.Server.respond: bad modulus";
        if Array.length q <> t.cols then
          invalid_arg "Qr_pir.Server.respond: query width mismatch")
      queries;
    let k = Array.length queries in
    let ctxs = Array.map (fun (n, _) -> Montgomery.create n) queries in
    let ys =
      Array.mapi
        (fun q (_, y) -> Array.map (Montgomery.to_window ctxs.(q)) y)
        queries
    in
    let counts = Array.map (fun _ -> ref 0) queries in
    Array.iteri (fun i ctx -> Montgomery.set_counter ctx (Some counts.(i))) ctxs;
    let nbits = 8 * t.block_len in
    let out =
      Array.init k (fun _ ->
          Array.init nbits (fun _ -> Array.make t.rows Z.zero))
    in
    let accs = Array.map Montgomery.one_window ctxs in
    for plane = 0 to nbits - 1 do
      for r = 0 to t.rows - 1 do
        for q = 0 to k - 1 do
          accs.(q) <- Montgomery.one_window ctxs.(q)
        done;
        for j = 0 to t.cols - 1 do
          let b = bit t ~row:r ~col:j ~plane in
          for q = 0 to k - 1 do
            let ctx = ctxs.(q) in
            let y = ys.(q).(j) in
            let factor = if b then y else Montgomery.mul_window ctx y y in
            accs.(q) <- Montgomery.mul_window ctx accs.(q) factor
          done
        done;
        for q = 0 to k - 1 do
          out.(q).(plane).(r) <- Montgomery.of_window ctxs.(q) accs.(q)
        done
      done
    done;
    Array.iteri
      (fun q (n, _) ->
        Counters.server_mult t.metrics !(counts.(q));
        Counters.server_bytes t.metrics
          (t.rows * nbits * ((Z.numbits n + 7) / 8)))
      queries;
    out

  (* All bit-planes of the blocks for one query: the full
     a x (8*block_len) answer, as a batch of one. *)
  let respond t ~(n : Z.t) (query : Z.t array) : Z.t array array =
    (respond_batch t [| (n, query) |]).(0)
end

(* One full block fetch. *)
let fetch ?metrics ~(server : Server.t) ~sk ~row ~col rand : string =
  let st, q =
    Client.query ?metrics ~sk ~cols:(Server.cols server) ~target_col:col rand
  in
  let planes = Server.respond server ~n:sk.pub.n q in
  Client.decode_block st planes ~target_row:row
