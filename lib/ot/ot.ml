(* Two-dimensional adaptive oblivious transfer (paper §III-C,
   Algorithms 1–2), built from ElGamal over a Schnorr group in the style of
   Bellare–Micali with Naor–Pinkas adaptive queries.

   The server owns an n-row × m-column matrix of byte-string payloads
   X_{i,j} (cell id ‖ symmetric key in the LBS protocol).  Initialisation
   (Algorithm 1) masks each payload as Y_{i,j} = X_{i,j} XOR H(g^{R_i} ‖
   g^{C_j}) and publishes Y.  A query for (i, j) (Algorithm 2) sends the
   ElGamal encryptions of g^{-i} and g^{-j}; the server's response lets the
   user unmask exactly K_{i,j} = g^{R_i} ‖ g^{C_j} — all other row/column
   combinations stay computationally hidden because of the per-query random
   exponents r_alpha, r_beta. *)

open Lbq_bignum
open Lbq_group
module Counters = Lbq_metrics.Counters

(* ------------------------------------------------------------------ *)
(* Mask derivation                                                      *)
(* ------------------------------------------------------------------ *)

(* H(K_{i,j}) with K = g^{R_i} ‖ g^{C_j}, both fixed-width big-endian.
   SHA-1 (as in the paper) expanded MGF1-style for payloads over 20 B.
   One preimage buffer K ‖ ctr is reused across blocks with the 4-byte
   counter patched in place — masking an n x m table hashes n*m cells,
   and the old per-block [k ^ ctr_bytes] concatenation allocated two
   fresh strings per 20 output bytes. *)
let derive_mask ~element_len ~(w1 : Z.t) ~(w2 : Z.t) ~len : string =
  let kl = 2 * element_len in
  let msg = Bytes.create (kl + 4) in
  Bytes.blit_string (Z.to_bytes_be_padded w1 ~len:element_len) 0 msg 0 element_len;
  Bytes.blit_string
    (Z.to_bytes_be_padded w2 ~len:element_len)
    0 msg element_len element_len;
  let out = Bytes.create len in
  let off = ref 0 in
  let ctr = ref 0 in
  while !off < len do
    Bytes.set msg kl (Char.chr ((!ctr lsr 24) land 0xff));
    Bytes.set msg (kl + 1) (Char.chr ((!ctr lsr 16) land 0xff));
    Bytes.set msg (kl + 2) (Char.chr ((!ctr lsr 8) land 0xff));
    Bytes.set msg (kl + 3) (Char.chr (!ctr land 0xff));
    let d = Lbq_crypto.Sha1.digest (Bytes.unsafe_to_string msg) in
    let n = min (String.length d) (len - !off) in
    Bytes.blit_string d 0 out !off n;
    off := !off + n;
    incr ctr
  done;
  Bytes.unsafe_to_string out

(* ------------------------------------------------------------------ *)
(* Message types                                                        *)
(* ------------------------------------------------------------------ *)

(* User -> server: C1 encrypts the row selector, C2 the column selector. *)
type query = { c1 : Elgamal.ciphertext; c2 : Elgamal.ciphertext }

(* Server -> user: one ciphertext per row and per column. *)
type response = {
  rows : (Z.t * Z.t) array;  (* C'_{1,alpha}, alpha over rows    *)
  cols : (Z.t * Z.t) array;  (* C'_{2,beta},  beta over columns  *)
}

let element_len group = (Schnorr.p_bits group + 7) / 8

let query_bytes group (_ : query) = 4 * element_len group

let response_bytes group (r : response) =
  2 * (Array.length r.rows + Array.length r.cols) * element_len group

(* ------------------------------------------------------------------ *)
(* Server                                                               *)
(* ------------------------------------------------------------------ *)

module Server = struct
  type t = {
    group : Schnorr.t;
    rand : int -> string;
    metrics : Counters.t;
    rows : int;                 (* n *)
    cols : int;                 (* m *)
    payload_len : int;
    r_exps : Z.t array;         (* R_i, one per row *)
    c_exps : Z.t array;         (* C_j, one per column *)
    masked : string array array; (* Y_{i,j}, published to users *)
  }

  (* Algorithm 1: executed once for the lifetime of the data. *)
  let init ~group ~rand ?(metrics = Counters.null) (payloads : string array array) =
    let rows = Array.length payloads in
    if rows = 0 then invalid_arg "Ot.Server.init: empty matrix";
    let cols = Array.length payloads.(0) in
    if cols = 0 then invalid_arg "Ot.Server.init: empty row";
    Array.iter
      (fun r ->
        if Array.length r <> cols then
          invalid_arg "Ot.Server.init: ragged matrix")
      payloads;
    let payload_len = String.length payloads.(0).(0) in
    Array.iter
      (Array.iter (fun x ->
           if String.length x <> payload_len then
             invalid_arg "Ot.Server.init: payloads must share one length"))
      payloads;
    let q = Schnorr.q group in
    let r_exps = Array.init rows (fun _ -> Z.random_unit ~bound:q rand) in
    let c_exps = Array.init cols (fun _ -> Z.random_unit ~bound:q rand) in
    (* g^{R_i}, g^{C_j}: n + m exponentiations, all at init time. *)
    let g_r = Array.map (fun e -> Schnorr.pow_g group e) r_exps in
    let g_c = Array.map (fun e -> Schnorr.pow_g group e) c_exps in
    Counters.server_exp metrics (rows + cols);
    let el = element_len group in
    let masked =
      Array.mapi
        (fun i row ->
          Array.mapi
            (fun j x ->
              let mask =
                derive_mask ~element_len:el ~w1:g_r.(i) ~w2:g_c.(j)
                  ~len:payload_len
              in
              Lbq_crypto.Bytes_util.xor x mask)
            row)
        payloads
    in
    { group; rand; metrics; rows; cols; payload_len; r_exps; c_exps; masked }

  let rows t = t.rows
  let cols t = t.cols
  let payload_len t = t.payload_len
  let group t = t.group

  (* The public masked table Y (transferred to users once). *)
  let masked_table t = t.masked

  (* Algorithm 2, server side.  For each row alpha:
       C'_{1,alpha} = (A1^{r_a}, g^{R_alpha} * (g^alpha * B1)^{r_a})
     and symmetrically per column with C_beta.  3 exponentiations per
     row/column — 3n + 3m total, the Table I server cost.

     Every ciphertext element is checked for subgroup membership first:
     accepting values of unknown order would let a malicious user move
     the blinding factors into a small subgroup and strip them.

     The arithmetic is organised around three fixed-base facts:
     - A1 is the same base for every alpha of an axis: one per-axis
       Lim-Lee comb ([Schnorr.base_comb]) serves all k rows'
       u = A1^{r_a}, each row costing only ~q_bits/teeth squarings;
     - g^alpha * B1 is a running product (one group multiplication per
       row) rather than a fresh exponentiation;
     - v = g^{R_alpha} * shifted^{r_a} runs both exponents on a single
       Straus ladder ([Schnorr.pow2_g_counted]), the g stream replaying the
       group's cached table.
     All of it runs on the group's Montgomery engine.  [predicted]
     accumulates the closed-form multiplication count of exactly these
     operations (window/comb combinatorics plus the engine's entry
     conversions, no ticks read) so benches can assert it against the
     measured counter. *)
  let check_membership t (q : query) =
    let group = t.group in
    let check c =
      if not (Schnorr.mem group c.Elgamal.a && Schnorr.mem group c.Elgamal.b)
      then invalid_arg "Ot.Server.respond: query element outside the subgroup"
    in
    check q.c1;
    check q.c2

  let answer_axis t rand predicted (c : Elgamal.ciphertext) exps k =
    let group = t.group in
    let qord = Schnorr.q group in
    let fb = Schnorr.base_comb group c.Elgamal.a in
    predicted := !predicted + Schnorr.base_comb_cost group;
    let shifted = ref c.Elgamal.b in
    let out = Array.make k (Z.zero, Z.zero) in
    for alpha = 0 to k - 1 do
      if alpha > 0 then begin
        shifted := Schnorr.mul group (Schnorr.g group) !shifted;
        predicted := !predicted + Schnorr.mul_cost
      end;
      let r_a = Z.random_unit ~bound:qord rand in
      let u, cu = Schnorr.pow_comb_counted group fb r_a in
      let v, cv = Schnorr.pow2_g_counted group exps.(alpha) !shifted r_a in
      predicted := !predicted + cu + cv;
      Counters.server_exp t.metrics 3;
      out.(alpha) <- (u, v)
    done;
    out

  let respond_with ?rand t (q : query) : response * int =
    check_membership t q;
    let rand = Option.value rand ~default:t.rand in
    let predicted = ref 0 in
    let rows = answer_axis t rand predicted q.c1 t.r_exps t.rows in
    let cols = answer_axis t rand predicted q.c2 t.c_exps t.cols in
    let resp = { rows; cols } in
    Counters.server_bytes t.metrics (response_bytes t.group resp);
    (resp, !predicted)

  let respond ?rand t (q : query) : response = fst (respond_with ?rand t q)

  (* [respond] plus its cost cross-check: the closed-form predicted
     multiplication count and the count the group's engine actually
     ticked over the answer arithmetic (membership checks excluded).
     Attaches a counter to the group's shared context — call it from
     single-threaded benches and tests only. *)
  let respond_counted ?rand t (q : query) : response * int * int =
    check_membership t q;
    let rand = Option.value rand ~default:t.rand in
    let predicted = ref 0 in
    let measured = ref 0 in
    let resp =
      Schnorr.counting t.group measured (fun () ->
          let rows = answer_axis t rand predicted q.c1 t.r_exps t.rows in
          let cols = answer_axis t rand predicted q.c2 t.c_exps t.cols in
          { rows; cols })
    in
    Counters.server_bytes t.metrics (response_bytes t.group resp);
    (resp, !predicted, !measured)

  (* The seed-revision answer path: plain square-and-multiply
     ({!Z.mod_pow_naive}) for all three per-row exponentiations and
     [Z.mul] + [Z.erem] for the products — no reduction engine at all,
     so it shares no code with the group's Montgomery kernels.
     Byte-identity oracle for [respond] under a fixed DRBG, and the
     `bench ot` baseline. *)
  let respond_reference ?rand t (q : query) : response =
    check_membership t q;
    let rand = Option.value rand ~default:t.rand in
    let group = t.group in
    let qord = Schnorr.q group in
    let gen = Schnorr.g group in
    let p = Schnorr.p group in
    let pow b e = Z.mod_pow_naive b (Z.erem e qord) p in
    let mul a b = Z.erem (Z.mul a b) p in
    let answer_axis (c : Elgamal.ciphertext) exps k =
      Array.init k (fun alpha ->
          let r_a = Z.random_unit ~bound:qord rand in
          let u = pow c.Elgamal.a r_a in
          let shifted = mul (pow gen (Z.of_int alpha)) c.Elgamal.b in
          let v = mul (pow gen exps.(alpha)) (pow shifted r_a) in
          Counters.server_exp t.metrics 3;
          (u, v))
    in
    let rows = answer_axis q.c1 t.r_exps t.rows in
    let cols = answer_axis q.c2 t.c_exps t.cols in
    let resp = { rows; cols } in
    Counters.server_bytes t.metrics (response_bytes group resp);
    resp
end

(* ------------------------------------------------------------------ *)
(* Client                                                               *)
(* ------------------------------------------------------------------ *)

module Client = struct
  type state = {
    group : Schnorr.t;
    metrics : Counters.t;
    x : Z.t;   (* ephemeral secret key *)
    i : int;   (* queried row *)
    j : int;   (* queried column *)
  }

  (* Algorithm 2, user side, lines 2–5.  With knowledge of x the user
     computes B = g^{-sel + x*r} directly: 2 exponentiations per selector,
     4 total — the Table I user cost. *)
  let query ~group ~rand ?(metrics = Counters.null) ~i ~j () : state * query =
    if i < 0 || j < 0 then invalid_arg "Ot.Client.query: negative index";
    let qord = Schnorr.q group in
    let x = Z.random_unit ~bound:qord rand in
    let encrypt_selector sel =
      let r = Z.random_unit ~bound:qord rand in
      let a = Schnorr.pow_g group r in
      let b =
        Schnorr.pow_g group (Z.erem (Z.add (Z.neg (Z.of_int sel)) (Z.mul x r)) qord)
      in
      Counters.user_exp metrics 2;
      { Elgamal.a; b }
    in
    let c1 = encrypt_selector i in
    let c2 = encrypt_selector j in
    let st = { group; metrics; x; i; j } in
    let q = { c1; c2 } in
    Counters.user_bytes metrics (query_bytes group q);
    st, q

  (* Algorithm 2, user side, lines 11–16: unmask Y_{i,j} with
     W1 ‖ W2 = g^{R_i} ‖ g^{C_j}.  2 exponentiations (Table I). *)
  let decode (st : state) ~(masked : string array array) (resp : response) : string =
    let group = st.group in
    if st.i >= Array.length resp.rows then invalid_arg "Ot.Client.decode: row out of range";
    if st.j >= Array.length resp.cols then invalid_arg "Ot.Client.decode: column out of range";
    let u1, v1 = resp.rows.(st.i) in
    let u2, v2 = resp.cols.(st.j) in
    let w1 = Schnorr.div group v1 (Schnorr.pow group u1 st.x) in
    let w2 = Schnorr.div group v2 (Schnorr.pow group u2 st.x) in
    Counters.user_exp st.metrics 2;
    let y = masked.(st.i).(st.j) in
    let mask =
      derive_mask ~element_len:(element_len group) ~w1 ~w2 ~len:(String.length y)
    in
    Lbq_crypto.Bytes_util.xor y mask

  (* Dishonest decode at an unauthorised cell (i', j'): runs the same
     arithmetic but with indices that differ from the query.  Exposed so
     tests and the malicious-user example can demonstrate that the result
     is indistinguishable from random (server security, §IV-B). *)
  let decode_at (st : state) ~(masked : string array array) (resp : response)
      ~i ~j : string =
    decode { st with i; j } ~masked resp
end
