(* Small-modulus lattice PIR behind the {!Backend_intf.S} signature — a
   torus-LWE design in the spirit of the TFHE-based LBS-PIR line
   (arXiv 2506.12761) with SimplePIR's hint trick: the server's whole
   online loop is machine-word arithmetic, no [lbq_bignum] anywhere on
   the hot path.

   Everything lives on the discretised torus Z_q with q = 2^34, so one
   OCaml int holds an element and products of a byte by an element fit
   a 63-bit word with room to accumulate a whole row before reduction.
   (q was 2^30 through PR 7; the wider modulus buys a 16x larger noise
   budget — max_cols 2056 -> 32896 — at the price of 8-byte instead of
   4-byte wire words.  Both divide 2^63, so native-int wraparound stays
   a faithful mod-q reduction either way.)

   Setup (server, once).  The blocks are flattened byte-wise into a
   matrix M over Z_256 with mrows = rows * block_len matrix rows (matrix
   row i = byte k of grid row r, i = r * block_len + k) and one matrix
   column per grid column.  A public matrix A in Z_q^{cols x n} is
   expanded from a seed, and the hint H = M * A in Z_q^{mrows x n} is
   computed once and published with the seed — the offline download that
   buys the tiny online traffic.

   Query (client).  Secret s in Z_q^n, per-column noise e_j in [-4, 4],
   and the encrypted column selector

     qu_j = <A_j, s> + e_j + delta * [j = col*]   (delta = q / 256)

   — cols words on the wire, whatever the block length.

   Respond (server).  ans = M * qu in Z_q^{mrows}: exactly
   mrows * cols word multiply-accumulates, the whole server cost.

   Decode (client).  ans_i - <H_i, s> = delta * M[i][col*] + noise with
   |noise| <= cols * 255 * 4, so rounding to the nearest multiple of
   delta recovers byte i of the target column provided cols <= 32896
   (enforced at encode).  Correctness is exact under that bound — the
   differential harness byte-checks it against Gr and QR. *)

module B = Backend_intf
module Counters = Lbq_metrics.Counters
module Drbg = Lbq_crypto.Drbg

(* ---- torus parameters (shared by every instantiation) ---- *)

let log_q = 34
let q_mask = (1 lsl log_q) - 1
let log_delta = log_q - 8          (* plaintext space Z_256: one byte *)
let delta = 1 lsl log_delta
let half_delta = 1 lsl (log_delta - 1)
let noise_max = 4

(* cols * 255 * noise_max must stay below half_delta. *)
let max_cols = (half_delta - 1) / (255 * noise_max)

let max_wire_words = 1 lsl 20
let seed_len = 16

module type CONFIG = sig
  (* LWE dimension n: secret length, hint width.  The arena default 64
     keeps tests fast; a hardened deployment would use >= 512. *)
  val dimension : int
end

module Make (C : CONFIG) : B.S = struct
  let name = "lwe"
  let mult_kind = B.Word_mul

  let n = C.dimension
  let () = if n < 1 then invalid_arg "Lwe_backend: dimension < 1"

  type server = {
    rows : int;
    cols : int;
    block_len : int;
    mrows : int;                  (* rows * block_len *)
    m : Bytes.t;                  (* M, mrows x cols, byte entries *)
    a_seed : string;
    hint : int array;             (* H = M * A, mrows x n, row-major *)
    a : int array;                (* A expanded from a_seed, cols x n *)
    metrics : Counters.t;
  }

  type client = {
    s : int array;                (* secret, n words *)
    row : int;
    rows : int;
    block_len : int;
    hint_row : int array;         (* H rows of the target grid row: block_len x n *)
    metrics : Counters.t;
  }

  type query = { qu : int array }       (* cols words *)
  type response = { ans : int array }   (* mrows words *)

  (* Expand the public matrix A (cols x n words, row-major) from its
     seed.  Server (hint) and client (query) must agree word for word,
     so both funnel through here.  One 8-byte big-endian draw per word,
     masked to the low log_q bits: uniform on Z_q since q is a power of
     two.  The intermediate shifts may wrap mod 2^63, which leaves the
     low 34 bits untouched. *)
  let word_of_bytes (raw : string) (i : int) : int =
    let v = ref 0 in
    for k = 0 to 7 do
      v := (!v lsl 8) lor Char.code raw.[(8 * i) + k]
    done;
    !v land q_mask

  let expand_a ~a_seed ~cols : int array =
    let drbg = Drbg.create ~domain:"lwe-backend-A" ~seed:a_seed () in
    let raw = Drbg.bytes drbg (8 * cols * n) in
    Array.init (cols * n) (word_of_bytes raw)

  let words_of_rand rand count =
    let raw = rand (8 * count) in
    Array.init count (word_of_bytes raw)

  let encode ?(metrics = Counters.null) ~rand (blocks : string array array)
    : server =
    let rows, cols, block_len = B.check_blocks ~who:"Lwe_backend.encode" blocks in
    if cols > max_cols then
      invalid_arg "Lwe_backend.encode: too many columns for the noise budget";
    let mrows = rows * block_len in
    let m = Bytes.create (mrows * cols) in
    for r = 0 to rows - 1 do
      for j = 0 to cols - 1 do
        let b = blocks.(r).(j) in
        for k = 0 to block_len - 1 do
          Bytes.unsafe_set m ((((r * block_len) + k) * cols) + j) b.[k]
        done
      done
    done;
    let a_seed = rand seed_len in
    (* H[i][k] = sum_j M[i][j] * A[j][k].  Products are < 2^42 and
       cols <= 32896 < 2^16, so a full row accumulates inside 2^58 —
       well within 63 bits — and one final mask suffices. *)
    let a = expand_a ~a_seed ~cols in
    let hint =
      Array.init (mrows * n) (fun ik ->
          let i = ik / n and k = ik mod n in
          let acc = ref 0 in
          for j = 0 to cols - 1 do
            acc := !acc + (Char.code (Bytes.unsafe_get m ((i * cols) + j))
                           * Array.unsafe_get a ((j * n) + k))
          done;
          !acc land q_mask)
    in
    { rows; cols; block_len; mrows; m; a_seed; hint; a; metrics }

  let rows (t : server) = t.rows
  let cols (t : server) = t.cols
  let block_len (t : server) = t.block_len

  (* geometry ++ n ++ log_q ++ seed ++ hint words.  The hint dominates
     (8 * mrows * n bytes) — offline bootstrap traffic, like Gr's plan
     parameters, deliberately outside the per-round cost oracle. *)
  let public t =
    let buf =
      Buffer.create (32 + String.length t.a_seed + (8 * Array.length t.hint))
    in
    Buffer.add_string buf
      (B.public_header ~rows:t.rows ~cols:t.cols ~block_len:t.block_len);
    Buffer.add_string buf (B.u32 n);
    Buffer.add_string buf (B.u32 log_q);
    Buffer.add_string buf (B.lp t.a_seed);
    Array.iter (fun w -> Buffer.add_string buf (B.u64 w)) t.hint;
    Buffer.contents buf

  let query ?(metrics = Counters.null) ~rand ~public ~row ~col ()
    : client * query =
    let rows, cols, block_len = B.read_public_header public in
    if B.read_u32 public 12 <> n then B.malformed "lwe dimension mismatch";
    if B.read_u32 public 16 <> log_q then B.malformed "lwe modulus mismatch";
    let a_seed, off = B.read_lp public 20 in
    if String.length public <> off + (8 * rows * block_len * n) then
      B.malformed "lwe public length";
    B.check_target ~rows ~cols ~row ~col;
    let a = expand_a ~a_seed ~cols in
    let s = words_of_rand rand n in
    let noise = rand cols in
    (* Accumulate raw: OCaml int arithmetic wraps mod 2^63 and
       2^34 | 2^63, so one final mask is a faithful mod-q reduction
       even though the word-by-word products themselves overflow. *)
    let qu =
      Array.init cols (fun j ->
          let acc = ref 0 in
          for k = 0 to n - 1 do
            acc := !acc + (Array.unsafe_get a ((j * n) + k) * Array.unsafe_get s k)
          done;
          let e = (Char.code noise.[j] land 7) - noise_max in
          let sel = if j = col then delta else 0 in
          ((!acc land q_mask) + e + sel + (1 lsl log_q)) land q_mask)
    in
    Counters.user_mult metrics (cols * n);
    Counters.user_bytes metrics (8 * cols);
    (* Only the hint rows of the target grid row are ever needed for
       decode; slice them out instead of holding the whole blob. *)
    let hint_row =
      Array.init (block_len * n) (fun k ->
          B.read_u64 public (off + (8 * (((row * block_len) * n) + k))))
    in
    { s; row; rows; block_len; hint_row; metrics }, { qu }

  let decode (c : client) (r : response) : string =
    if Array.length r.ans <> c.rows * c.block_len then
      invalid_arg "Lwe_backend.decode: answer length";
    let out =
      String.init c.block_len (fun k ->
          let dot = ref 0 in
          for k' = 0 to n - 1 do
            dot :=
              !dot
              + (Array.unsafe_get c.hint_row ((k * n) + k')
                 * Array.unsafe_get c.s k')
          done;
          let i = (c.row * c.block_len) + k in
          let v = (r.ans.(i) - (!dot land q_mask)) land q_mask in
          Char.chr (((v + half_delta) land q_mask) lsr log_delta))
    in
    Counters.user_mult c.metrics (c.block_len * n);
    out

  let respond (t : server) (q : query) : response =
    if Array.length q.qu <> t.cols then B.malformed "lwe query width";
    Array.iter
      (fun w -> if w < 0 || w > q_mask then B.malformed "lwe query word range")
      q.qu;
    (* The hot loop: mrows * cols word multiply-accumulates, nothing
       else.  Products are < 2^42; cols <= 32896 < 2^16 keeps the
       running sum under 2^58, so the mask is paid once per matrix
       row. *)
    let ans =
      Array.init t.mrows (fun i ->
          let base = i * t.cols in
          let acc = ref 0 in
          for j = 0 to t.cols - 1 do
            acc := !acc + (Char.code (Bytes.unsafe_get t.m (base + j))
                           * Array.unsafe_get q.qu j)
          done;
          !acc land q_mask)
    in
    Counters.server_mult t.metrics (t.mrows * t.cols);
    Counters.server_bytes t.metrics (8 * t.mrows);
    { ans }

  (* Fused batch respond: M · Qᵀ with query lanes held in registers.
     The scalar MAC loop is COMPUTE-bound (~4 cycles per
     multiply-accumulate against 1 byte of matrix traffic — far below
     memory bandwidth), so merely re-reading M less often buys nothing;
     what a batch CAN share is the per-element work that does not
     depend on the query: fetching and decoding the database byte and
     the loop bookkeeping around it.  Queries are therefore processed
     in PANES of four lanes whose partial sums ride in the tail-call
     parameters of [dot4] (the native compiler keeps tail-recursion
     parameters in registers and compiles the self-call to a jump), so
     each database byte is loaded and tagged once per pane instead of
     once per query.  The pane panel is packed lane-major
     (qtp.(4j + lane)) for contiguous inner access, and the column
     range is tiled so the panel chunk stays cache-resident while the
     database rows stream through it.  No intermediate masking:
     cols <= 32896 < 2^16 keeps every full-row lane accumulator under
     2^58 exactly as in [respond], and the integer sums are exact, so
     the single final mask yields bit-identical answers. *)
  let rec dot4 m qtp mj mhi qj a0 a1 a2 a3 =
    if mj = mhi then (a0, a1, a2, a3)
    else
      let mv = Char.code (Bytes.unsafe_get m mj) in
      dot4 m qtp (mj + 1) mhi (qj + 4)
        (a0 + (mv * Array.unsafe_get qtp qj))
        (a1 + (mv * Array.unsafe_get qtp (qj + 1)))
        (a2 + (mv * Array.unsafe_get qtp (qj + 2)))
        (a3 + (mv * Array.unsafe_get qtp (qj + 3)))

  let rec dot2 m qtp mj mhi qj a0 a1 =
    if mj = mhi then (a0, a1)
    else
      let mv = Char.code (Bytes.unsafe_get m mj) in
      dot2 m qtp (mj + 1) mhi (qj + 2)
        (a0 + (mv * Array.unsafe_get qtp qj))
        (a1 + (mv * Array.unsafe_get qtp (qj + 1)))

  let rec dot1 m qu mj mhi qj a0 =
    if mj = mhi then a0
    else
      dot1 m qu (mj + 1) mhi (qj + 1)
        (a0
         + (Char.code (Bytes.unsafe_get m mj) * Array.unsafe_get qu qj))

  let respond_batch (t : server) (qs : query array) : response array =
    let k = Array.length qs in
    if k = 0 then [||]
    else if k = 1 then [| respond t qs.(0) |]
    else begin
      Array.iter
        (fun q ->
          if Array.length q.qu <> t.cols then B.malformed "lwe query width";
          Array.iter
            (fun w ->
              if w < 0 || w > q_mask then B.malformed "lwe query word range")
            q.qu)
        qs;
      (* Unmasked per-query row sums; lanes seed from and drain back to
         these across column tiles, so tiling never changes a sum. *)
      let raw = Array.init k (fun _ -> Array.make t.mrows 0) in
      let tile = 4096 in
      let pane q0 width =
        let qtp = Array.make (t.cols * width) 0 in
        for l = 0 to width - 1 do
          let qu = qs.(q0 + l).qu in
          for j = 0 to t.cols - 1 do
            Array.unsafe_set qtp ((j * width) + l) (Array.unsafe_get qu j)
          done
        done;
        let jt = ref 0 in
        while !jt < t.cols do
          let jhi = min t.cols (!jt + tile) in
          for i = 0 to t.mrows - 1 do
            let mj = (i * t.cols) + !jt
            and mhi = (i * t.cols) + jhi
            and qj = !jt * width in
            if width = 4 then begin
              let r0 = raw.(q0)
              and r1 = raw.(q0 + 1)
              and r2 = raw.(q0 + 2)
              and r3 = raw.(q0 + 3) in
              let a0, a1, a2, a3 =
                dot4 t.m qtp mj mhi qj
                  (Array.unsafe_get r0 i) (Array.unsafe_get r1 i)
                  (Array.unsafe_get r2 i) (Array.unsafe_get r3 i)
              in
              Array.unsafe_set r0 i a0;
              Array.unsafe_set r1 i a1;
              Array.unsafe_set r2 i a2;
              Array.unsafe_set r3 i a3
            end
            else begin
              let r0 = raw.(q0) and r1 = raw.(q0 + 1) in
              let a0, a1 =
                dot2 t.m qtp mj mhi qj (Array.unsafe_get r0 i)
                  (Array.unsafe_get r1 i)
              in
              Array.unsafe_set r0 i a0;
              Array.unsafe_set r1 i a1
            end
          done;
          jt := jhi
        done
      in
      let q0 = ref 0 in
      while k - !q0 >= 4 do
        pane !q0 4;
        q0 := !q0 + 4
      done;
      if k - !q0 >= 2 then begin
        pane !q0 2;
        q0 := !q0 + 2
      end;
      if k - !q0 = 1 then begin
        let qu = qs.(!q0).qu and r = raw.(!q0) in
        for i = 0 to t.mrows - 1 do
          r.(i) <- dot1 t.m qu (i * t.cols) ((i + 1) * t.cols) 0 0
        done
      end;
      let out =
        Array.init k (fun q ->
            { ans = Array.map (fun v -> v land q_mask) raw.(q) })
      in
      Array.iter
        (fun _ ->
          Counters.server_mult t.metrics (t.mrows * t.cols);
          Counters.server_bytes t.metrics (8 * t.mrows))
        qs;
      out
    end

  (* Incremental update: grid block (row, col) owns matrix column [col]
     of the block_len matrix rows i = row * block_len + k.  Patching one
     byte M[i][col] shifts hint row i by (new - old) * A[col], so the
     whole fix-up is block_len dot-product-scale updates of n words each
     — never the mrows * n * cols full product.  OCaml int arithmetic
     wraps mod 2^63 and 2^34 | 2^63, so masking the (possibly negative)
     adjusted word is a faithful mod-q reduction, and the patched hint
     equals a fresh encode's word for word.  [A] is the one [encode]
     expanded for the hint. *)
  let update (t : server) ~row ~col ~(block : string) =
    if row < 0 || row >= t.rows || col < 0 || col >= t.cols then
      invalid_arg "Lwe_backend.update: target out of range";
    if String.length block <> t.block_len then
      invalid_arg "Lwe_backend.update: block length";
    let a = t.a and hint = t.hint in
    for k = 0 to t.block_len - 1 do
      let i = (row * t.block_len) + k in
      let old = Char.code (Bytes.get t.m ((i * t.cols) + col)) in
      let nv = Char.code block.[k] in
      if nv <> old then begin
        let d = nv - old in
        Bytes.set t.m ((i * t.cols) + col) block.[k];
        for k' = 0 to n - 1 do
          let idx = (i * n) + k' in
          Array.unsafe_set hint idx
            ((Array.unsafe_get hint idx
              + (d * Array.unsafe_get a ((col * n) + k')))
             land q_mask)
        done
      end
    done

  (* ---- wire: a u32 count followed by count u64 torus words ---- *)

  let words_encode ws =
    let buf = Buffer.create (4 + (8 * Array.length ws)) in
    Buffer.add_string buf (B.u32 (Array.length ws));
    Array.iter (fun w -> Buffer.add_string buf (B.u64 w)) ws;
    Buffer.contents buf

  let words_decode ~what ~min_count (s : string) : int array =
    let count = B.read_u32 s 0 in
    if count < min_count || count > max_wire_words then
      B.malformed (what ^ " count");
    if String.length s <> 4 + (8 * count) then B.malformed (what ^ " length");
    Array.init count (fun i ->
        let w = B.read_u64 s (4 + (8 * i)) in
        if w > q_mask then B.malformed (what ^ " word out of range");
        w)

  let query_encode (q : query) : string = words_encode q.qu
  let query_decode (s : string) : query =
    { qu = words_decode ~what:"lwe query" ~min_count:1 s }

  let response_encode (r : response) : string = words_encode r.ans
  let response_decode (s : string) : response =
    { ans = words_decode ~what:"lwe response" ~min_count:0 s }

  (* Exact by construction: the query is always cols words, the answer
     always mrows words, and the loop runs mrows * cols multiplies. *)
  let predicted_cost (t : server) (_q : query) : B.cost =
    { query_bytes = 4 + (8 * t.cols);
      response_bytes = 4 + (8 * t.mrows);
      server_mults = t.mrows * t.cols }
end

(* Registry default: dimension 64 — fast enough for the differential
   suite while keeping the hint small.  Bench instantiates larger. *)
module Default = Make (struct let dimension = 64 end)

let default : B.backend = (module Default)
