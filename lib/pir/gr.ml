(* Gentry–Ramzan single-database PIR with constant communication rate
   (ICALP'05), as used in stage 2 of the paper (§III-D, Algorithm 3,
   Appendix B).

   Database encoding (server, once):  records C_1..C_t are integers; each
   record i is assigned a distinct prime power pi_i = p_i^{c_i} with
   C_i < pi_i, and the whole database is the smallest integer e with
   e = C_i (mod pi_i) for all i (Chinese Remainder Theorem).

   Query (user): pick pi = pi_index, build a phi-hiding group — semi-safe
   primes Q0 = 2*q0*pi + 1 and Q1 = 2*q1 + 1, modulus N = Q0*Q1 so that
   pi | phi(N) — and a quasi-generator g whose order is divisible by pi.
   Send (N, g); the factorisation of N (and hence which pi divides
   phi(N)) stays secret under the phi-hiding assumption.

   Response (server): g_e = g^e mod N — |e| modular multiplications.

   Decode (user): h = g^(phi/pi), h_e = g_e^(phi/pi); then
   C_index = log_h(h_e) in the order-pi subgroup, solved digit-by-digit
   with Pohlig–Hellman (Table V / Appendix B). *)

open Lbq_bignum
open Lbq_numth
module Counters = Lbq_metrics.Counters

(* ------------------------------------------------------------------ *)
(* Prime-power plan                                                     *)
(* ------------------------------------------------------------------ *)

type slot = {
  p : Z.t;    (* small prime base *)
  c : int;    (* exponent *)
  pi : Z.t;   (* p^c, the record capacity *)
}

type plan = { slots : slot array; block_bits : int }

(* The "predictable pattern" of §III-B: the first [count] primes starting
   at [first] (default 3), each raised to the least power reaching
   [block_bits] bits of capacity — e.g. 3^647, 5^442, ..., 1429^98 for
   1024-bit blocks and 225 records. *)
let make_plan ?(first = 3) ~count ~block_bits () =
  if count <= 0 then invalid_arg "Gr.make_plan: count <= 0";
  if block_bits <= 0 then invalid_arg "Gr.make_plan: block_bits <= 0";
  let primes = Sieve.first_primes ~from:first count in
  let slots =
    List.map
      (fun p ->
        let pz = Z.of_int p in
        let rec grow c pi =
          if Z.numbits pi > block_bits then c, pi
          else grow (c + 1) (Z.mul pi pz)
        in
        let c, pi = grow 1 pz in
        { p = pz; c; pi })
      primes
  in
  { slots = Array.of_list slots; block_bits }

let plan_size plan = Array.length plan.slots
let plan_block_bits plan = plan.block_bits
let plan_slot plan i =
  if i < 0 || i >= Array.length plan.slots then
    invalid_arg "Gr.plan_slot: index out of range";
  plan.slots.(i)

(* Capacity check: every record must fit its slot. *)
let fits plan i (v : Z.t) = Z.lt v (plan_slot plan i).pi

(* Sub-plan over a subset of slots, for sharded serving: shard d of S
   holds the slots [indices] and CRT-encodes only those records, so its
   e_d is ~|e|/S bits and a respond costs ~1/S of the full database's
   multiplications.  The slots themselves are shared verbatim with the
   parent plan — a client instance built for slot i of the parent
   phi-hides the same pi and decodes a shard response g^{e_d} exactly as
   it would g^e, because decode only sees g^{e_d · phi/pi} and
   e_d = C_i (mod pi) just like e. *)
let plan_restrict plan ~indices =
  let n = plan_size plan in
  if Array.length indices = 0 then invalid_arg "Gr.plan_restrict: no indices";
  let seen = Array.make n false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n then invalid_arg "Gr.plan_restrict: index out of range";
      if seen.(i) then invalid_arg "Gr.plan_restrict: duplicate index";
      seen.(i) <- true)
    indices;
  { slots = Array.map (fun i -> plan.slots.(i)) indices;
    block_bits = plan.block_bits }

(* ------------------------------------------------------------------ *)
(* Server                                                               *)
(* ------------------------------------------------------------------ *)

module Server = struct
  type t = {
    plan : plan;
    tree : Crt.Tree.t;
      (* the CRT encoding of the whole database, [e] = its solution; a
         single-record change is one product on it *)
    mutable e_sched : Wexp.t;
      (* e recoded once per epoch: every query replays this schedule *)
    mutable epoch : int;
      (* bumped by every applied update; mirrors the keypool's
         generation tickets so racing queries get serve-from-epoch
         semantics, never a torn answer *)
    metrics : Counters.t;
  }

  let create ?(metrics = Counters.null) plan (records : Z.t array) =
    if Array.length records <> plan_size plan then
      invalid_arg "Gr.Server.create: record count does not match plan";
    Array.iteri
      (fun i r ->
        if Z.sign r < 0 || not (fits plan i r) then
          invalid_arg "Gr.Server.create: record exceeds its prime-power capacity")
      records;
    let congruences =
      Array.to_list (Array.mapi (fun i r -> r, plan.slots.(i).pi) records)
    in
    let tree = Crt.Tree.build congruences in
    { plan; tree; e_sched = Wexp.recode (Z.to_nat (Crt.Tree.solve tree));
      epoch = 0; metrics }

  let e t = Crt.Tree.solve t.tree
  let e_bits t = Z.numbits (e t)
  let plan t = t.plan
  let schedule t = t.e_sched
  let epoch t = t.epoch

  (* Replace record [idx] and re-derive [e] incrementally: one
     {!Crt.Tree.update_leaf} (a leaf-width product times M / pi_idx, no
     inversion) plus a schedule refresh at the old schedule's window
     width.  Everything a [respond] reads — [e_sched] — is swapped in
     one store, so a concurrent respond sees either the old epoch's
     schedule or the new one, never a mix. *)
  let update_block t ~idx ~(block : Z.t) =
    if idx < 0 || idx >= plan_size t.plan then
      invalid_arg "Gr.Server.update_block: index out of range";
    if Z.sign block < 0 || not (fits t.plan idx block) then
      invalid_arg
        "Gr.Server.update_block: record exceeds its prime-power capacity";
    Crt.Tree.update_leaf t.tree idx block;
    t.e_sched <- Wexp.refresh t.e_sched (Z.to_nat (e t));
    t.epoch <- t.epoch + 1

  (* Exact modular multiplications one [respond] performs on the default
     (Montgomery) engine: the schedule cost plus the conversion of g into
     Montgomery form.  The updated Table II closed form. *)
  let predicted_mults t =
    let c = Wexp.cost t.e_sched in
    if c = 0 then 0 else c + 1

  (* Upper bound on a legitimate query modulus: |N| <= max|pi| + 2*q_bits
     + small slack.  Callers pass their deployment's q_bits; anything
     wider is a resource-exhaustion attempt, not a query (g^e costs |e|
     multiplications at the query's width). *)
  let max_modulus_bits t ~q_bits =
    let worst = ref 0 in
    Array.iter (fun s -> worst := max !worst (Z.numbits s.pi)) t.plan.slots;
    !worst + (2 * (q_bits + 2)) + 8

  (* Answer k queries (N, g) with g^e mod N through ONE walk of the
     schedule recoded at creation.  Honest moduli N = Q0*Q1 are odd, so
     every query goes through {!Montgomery.powm_sched_batch} — the fused
     CIOS sweeps put Montgomery ~3x ahead of the pre-rewrite engines on
     this workload (bench powm) — with a per-query context and counter:
     results and per-query mult counts are those of k separate ladders,
     but the ops tape and the window-digit dispatch are paid once per
     digit rather than once per (digit, query).  Every query is
     validated before any work (an even or [<= 1] modulus, an oversized
     one, [g] out of range); the measured multiplication count is
     attached to the metrics (Table II server cost). *)
  let respond_batch ?max_n_bits t (queries : (Z.t * Z.t) array) : Z.t array =
    Array.iter
      (fun ((n : Z.t), (g : Z.t)) ->
        if Z.leq n Z.one || Z.is_even n then
          invalid_arg "Gr.Server.respond: bad modulus";
        (match max_n_bits with
         | Some bound when Z.numbits n > bound ->
           invalid_arg "Gr.Server.respond: modulus exceeds the deployment bound"
         | _ -> ());
        if Z.leq g Z.one || Z.geq g n then
          invalid_arg "Gr.Server.respond: generator out of range")
      queries;
    let ctxs = Array.map (fun (n, _) -> Montgomery.create n) queries in
    let counts = Array.map (fun _ -> ref 0) ctxs in
    Array.iteri
      (fun i ctx -> Montgomery.set_counter ctx (Some counts.(i)))
      ctxs;
    let out =
      Montgomery.powm_sched_batch ctxs (Array.map snd queries) t.e_sched
    in
    Array.iteri
      (fun i (n, _) ->
        Counters.server_mult t.metrics !(counts.(i));
        Counters.server_bytes t.metrics ((Z.numbits n + 7) / 8))
      queries;
    out

  (* One query is a batch of one: below {!Montgomery.interleave_min_ke}
     limbs the batch kernel runs the plain [powm_sched] ladder, above it
     a one-query interleaved group with the same result and tick count. *)
  let respond ?max_n_bits t ~(n : Z.t) ~(g : Z.t) : Z.t =
    (respond_batch ?max_n_bits t [| (n, g) |]).(0)
end

(* ------------------------------------------------------------------ *)
(* Client                                                               *)
(* ------------------------------------------------------------------ *)

module Client = struct
  type state = {
    slot : slot;
    n : Z.t;            (* modulus N = Q0 * Q1, factorisation secret *)
    g : Z.t;            (* quasi-generator, order divisible by pi *)
    phi : Z.t;          (* phi(N) = 4 * q0 * q1 * pi *)
    qq0 : Z.t;          (* Q0 = 2 q0 pi + 1: the trapdoor, kept client-side *)
    qq1 : Z.t;          (* Q1 = 2 q1 + 1 *)
    mont : Montgomery.t;
      (* N is odd (product of two odd primes): the quasi-generator
         check, both decode exponentiations to phi/pi and the
         Pohlig–Hellman solver all run on this one context *)
    metrics : Counters.t;
    mutable solver : Dlog.Prime_power_solver.t option;
      (* h = g^(phi/pi) and the Pohlig–Hellman tables depend only on the
         instance, not the response: built on first decode (or by
         {!prepare}, offline), reused after *)
  }

  (* Build the phi-hiding instance for record [index].  [q_bits] is the
     width of the cofactor primes q0, q1 (the paper uses 128, §VI-B).
     Cost is dominated by the primality search for Q0 and Q1, which is
     why the user query dominates Table IV.  Both searches walk q in
     segment-sieved windows (odd primes below 2^16 struck from q and Q
     at once).  Q0 - 1 = 2*q0*pi has the factored part 2*pi, above
     sqrt Q0 whenever pi has at least [q_bits] bits, so each Q0
     candidate gets one Pocklington certificate exponentiation and the
     Q0 returned is proven prime; Q1 = 2*q1 + 1 stays on Miller–Rabin.
     [metrics] counts either test once per candidate in [mr_calls]. *)
  let query ?(metrics = Counters.null) ~plan ~index ~q_bits rand : state * (Z.t * Z.t) =
    let slot = plan_slot plan index in
    let _q0, qq0 = Primegen.semi_safe ~metrics ~q_bits ~multiple:slot.pi rand in
    let rec distinct_q1 () =
      let q1, qq1 = Primegen.semi_safe ~metrics ~q_bits ~multiple:Z.one rand in
      if Z.equal qq1 qq0 then distinct_q1 () else q1, qq1
    in
    let _q1, qq1 = distinct_q1 () in
    let n = Z.mul qq0 qq1 in
    let phi = Z.mul (Z.pred qq0) (Z.pred qq1) in
    let mont = Montgomery.create n in
    (* Quasi-generator: order of g must retain the full pi = p^c factor,
       i.e. g^(phi/p) <> 1. *)
    let cofactor_p = Z.div phi slot.p in
    let rec find_g () =
      let g = Z.add Z.two (Z.random_below ~bound:(Z.sub n (Z.of_int 3)) rand) in
      if Z.equal (Z.gcd g n) Z.one
         && not (Z.equal (Montgomery.powm mont g cofactor_p) Z.one)
      then g
      else find_g ()
    in
    let g = find_g () in
    let st =
      { slot; n; g; phi; qq0; qq1; mont; metrics; solver = None }
    in
    Counters.user_bytes metrics (2 * ((Z.numbits n + 7) / 8));
    st, (n, g)

  let modulus st = st.n
  let generator st = st.g
  let wire st = st.n, st.g
  let factors st = st.qq0, st.qq1

  (* The instance-only half of [decode]: h = g^(phi/pi) plus the
     Pohlig–Hellman power/inverse/baby-step tables, all independent of
     any server response.  [mults] collects the modular multiplications
     spent here so callers can attribute them (online decode vs offline
     prepare). *)
  let solver_of st ~mults =
    match st.solver with
    | Some s -> s
    | None ->
      let exponent = Z.div st.phi st.slot.pi in
      let s =
        Montgomery.counting st.mont mults (fun () ->
            let h = Montgomery.powm st.mont st.g exponent in
            Dlog.Prime_power_solver.make st.mont ~base:h ~p:st.slot.p
              ~c:st.slot.c)
      in
      st.solver <- Some s;
      s

  (* Build every response-independent table now — the offline half of the
     offline/online split.  A prepared state's [decode] costs one
     exponentiation plus the giant steps, nothing else.  The work is
     counted as user multiplications (it is the user's Table II cost,
     merely moved off the query path). *)
  let prepare st =
    let mults = ref 0 in
    let s = solver_of st ~mults in
    Montgomery.counting st.mont mults (fun () ->
        Dlog.Prime_power_solver.force s);
    Counters.user_mult st.metrics !mults

  (* Recover C_index from the server's g^e: raise both g and g_e to
     phi/pi (the user's 2|N| multiplications of Table II), then take the
     discrete log base h = g^(phi/pi) in the order-pi subgroup via
     Pohlig–Hellman.  Everything depending only on the instance — h and
     the solver's power/baby-step tables — is cached on the first decode,
     so re-decoding against the same state costs one exponentiation plus
     the giant steps. *)
  let decode (st : state) (ge : Z.t) : Z.t =
    let exponent = Z.div st.phi st.slot.pi in
    let mults = ref 0 in
    let solver = solver_of st ~mults in
    let result =
      Montgomery.counting st.mont mults (fun () ->
          let he = Montgomery.powm st.mont ge exponent in
          Dlog.Prime_power_solver.solve solver he)
    in
    Counters.user_mult st.metrics !mults;
    match result with
    | Some v -> v
    | None ->
      invalid_arg "Gr.Client.decode: response is not in the expected subgroup"
end

(* ------------------------------------------------------------------ *)
(* Whole-protocol convenience                                           *)
(* ------------------------------------------------------------------ *)

(* One full PIR round against [server] for record [index]. *)
let fetch ?metrics ~(server : Server.t) ~index ~q_bits rand : Z.t =
  let st, (n, g) =
    Client.query ?metrics ~plan:(Server.plan server) ~index ~q_bits rand
  in
  let ge = Server.respond server ~n ~g in
  Client.decode st ge
