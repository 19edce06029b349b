(* Discrete logarithms: brute force, baby-step/giant-step, Pohlig–Hellman.

   The Gentry–Ramzan PIR client recovers its record as a discrete log in a
   subgroup of smooth prime-power order pi = p^c, which Pohlig–Hellman
   reduces to c digit-solves in a subgroup of small prime order p (paper
   §V-A and Appendix B / Table V). *)

open Lbq_bignum

(* Exhaustive search for x in [0, bound) with base^x = target modulo
   [m].  Used in tests and as the paper's "brute force" reference
   (Appendix B).  Plain [Z] arithmetic, so the oracle shares no code
   with the Montgomery engine the Pohlig–Hellman solvers run on. *)
let brute m ~base ~target ~bound : Z.t option =
  let mulmod a b = Z.erem (Z.mul a b) m in
  let target = Z.erem target m in
  let rec go x acc =
    if Z.geq x bound then None
    else if Z.equal acc target then Some x
    else go (Z.succ x) (mulmod acc base)
  in
  go Z.zero (Z.erem Z.one m)

(* Baby-step/giant-step in the cyclic group generated by [base] of order
   [order] modulo [modulus]: O(sqrt order) time and space, plain [Z]
   arithmetic like {!brute}. *)
let bsgs modulus ~base ~target ~order : Z.t option =
  if Z.sign order <= 0 then invalid_arg "Dlog.bsgs: order <= 0";
  let mulmod a b = Z.erem (Z.mul a b) modulus in
  let target = Z.erem target modulus in
  let m = Z.to_int (Z.succ (Z.sqrt (Z.pred order))) in
  let table = Hashtbl.create (2 * m) in
  let acc = ref (Z.erem Z.one modulus) in
  for j = 0 to m - 1 do
    if not (Hashtbl.mem table (Z.to_bytes_be !acc)) then
      Hashtbl.add table (Z.to_bytes_be !acc) j;
    acc := mulmod !acc base
  done;
  (* giant step factor: base^(-m) *)
  let base_m = Z.mod_pow_naive base (Z.of_int m) modulus in
  let factor = Z.invert base_m modulus in
  let rec go i y =
    if i > m then None
    else
      match Hashtbl.find_opt table (Z.to_bytes_be y) with
      | Some j ->
        let x = Z.add (Z.mul_int (Z.of_int i) m) (Z.of_int j) in
        if Z.lt x order then Some x else None
      | None -> go (i + 1) (mulmod y factor)
  in
  go 0 target

(* Pohlig–Hellman for a subgroup of prime-power order p^c.
   [base] must have order exactly p^c; [solve] returns x in [0, p^c) with
   base^x = target, or None when target is outside the subgroup.

   Divide-and-conquer variant: writing x = x_low + p^c1 * x_high with
   c = c1 + c2, the low half is a size-c1 instance on base^(p^c2) and the
   high half a size-c2 instance on base^(p^c1).  Group work is
   O(c log c log p) multiplications, against O(c^2 log p) for the naive
   digit-by-digit schoolbook loop — the difference between milliseconds
   and seconds at the paper's c = 647.

   The modulus is odd (the PIR client's N = Q0*Q1), so the solver runs
   on a Montgomery context: the target is converted in once, every
   intermediate residue, inverse power and baby-step key stays in
   Montgomery form, and nothing converts out (the answer is an
   exponent).  Canonical windows make the baby-step table's keys exact.

   Everything that depends only on (ctx, base, p, c) — the inverse
   powers base^(-p^k), the recoded p^c2 exponents of the recursion, and
   the baby-step table of the order-p subgroup shared by every leaf
   digit-solve — lives in a reusable solver, so a client decoding many
   responses against one PIR instance builds those once; the lazy
   pieces are only paid on the first [solve]. *)
module Prime_power_solver = struct
  type t = {
    ctx : Montgomery.t;
    p : Z.t;
    c : int;
    low_scheds : Wexp.t option array;
      (* low_scheds.(c2) = p^c2 recoded, for every split size c2 the
         recursion on c reaches (immutable after [make]) *)
    inv_powers : Montgomery.window array Lazy.t;
      (* inv_powers.(k) = base^(-p^k), k in [0, c) *)
    digit_log : (Montgomery.window -> Z.t option) Lazy.t;
      (* shared BSGS over gamma = base^(p^(c-1)), order p *)
  }

  let make ctx ~base ~p ~c : t =
    if c <= 0 then invalid_arg "Dlog.Prime_power_solver.make: c <= 0";
    let modulus = Montgomery.modulus ctx in
    let recode e = Wexp.recode (Z.to_nat e) in
    let sched_p = recode p in
    let gamma =
      Montgomery.pow_window ctx (Montgomery.to_window ctx base)
        (recode (Z.pow p (c - 1)))
    in
    let low_scheds = Array.make (c + 1) None in
    let rec splits size =
      if size > 1 then begin
        let c1 = size / 2 in
        let c2 = size - c1 in
        if low_scheds.(c2) = None then
          low_scheds.(c2) <- Some (recode (Z.pow p c2));
        splits c1;
        splits c2
      end
    in
    splits c;
    let inv_powers =
      lazy begin
        let a =
          Array.make c (Montgomery.to_window ctx (Z.invert base modulus))
        in
        for k = 1 to c - 1 do
          a.(k) <- Montgomery.pow_window ctx a.(k - 1) sched_p
        done;
        a
      end
    in
    let digit_log =
      lazy begin
        (* gamma generates the order-p subgroup; one baby-step table
           serves every leaf digit-solve of every [solve] call. *)
        let m = Z.to_int (Z.succ (Z.sqrt (Z.pred p))) in
        let table = Hashtbl.create (2 * m) in
        let acc = ref (Montgomery.one_window ctx) in
        for j = 0 to m - 1 do
          if not (Hashtbl.mem table !acc) then Hashtbl.add table !acc j;
          acc := Montgomery.mul_window ctx !acc gamma
        done;
        let gamma_m = Montgomery.pow_window ctx gamma (recode (Z.of_int m)) in
        let gamma_m_inv =
          Montgomery.to_window ctx
            (Z.invert (Montgomery.of_window ctx gamma_m) modulus)
        in
        fun delta ->
          let rec go i y =
            if i > m then None
            else
              match Hashtbl.find_opt table y with
              | Some j ->
                let d = (i * m) + j in
                if Z.lt (Z.of_int d) p then Some (Z.of_int d) else None
              | None -> go (i + 1) (Montgomery.mul_window ctx y gamma_m_inv)
          in
          go 0 delta
      end
    in
    { ctx; p; c; low_scheds; inv_powers; digit_log }

  (* Pay the lazy pieces — inverse powers and the shared baby-step table
     — now instead of on the first [solve].  An offline instance builder
     (the keypool) calls this so a pooled instance is decode-ready. *)
  let force t =
    ignore (Lazy.force t.inv_powers);
    let (_ : Montgomery.window -> Z.t option) = Lazy.force t.digit_log in
    ()

  let solve t target : Z.t option =
    let ctx = t.ctx and p = t.p in
    let digit_log = Lazy.force t.digit_log in
    (* Solve (base^(p^k))^x = tgt for x in [0, p^size); requires
       k + size = c (so base^(p^k) has order exactly p^size). *)
    let rec go k size tgt =
      if size = 1 then digit_log tgt
      else begin
        let c1 = size / 2 in
        let c2 = size - c1 in
        (* Low half: tgt^(p^c2) = (base_k^(p^c2))^x = base_{k+c2}^(x mod p^c1). *)
        let sched =
          match t.low_scheds.(c2) with Some s -> s | None -> assert false
        in
        let t_low = Montgomery.pow_window ctx tgt sched in
        match go (k + c2) c1 t_low with
        | None -> None
        | Some x_low ->
          (* Peel the low digits: tgt' = tgt * base_k^(-x_low)
             = base_{k+c1}^x_high. *)
          let tgt' =
            Montgomery.mul_window ctx tgt
              (Montgomery.pow_window ctx (Lazy.force t.inv_powers).(k)
                 (Wexp.recode (Z.to_nat x_low)))
          in
          (match go (k + c1) c2 tgt' with
           | None -> None
           | Some x_high -> Some (Z.add x_low (Z.mul (Z.pow p c1) x_high)))
      end
    in
    go 0 t.c (Montgomery.to_window ctx target)
end

let pohlig_hellman_prime_power ctx ~base ~target ~p ~c : Z.t option =
  if c <= 0 then invalid_arg "Dlog.pohlig_hellman_prime_power: c <= 0";
  Prime_power_solver.solve (Prime_power_solver.make ctx ~base ~p ~c) target

(* General Pohlig–Hellman: [factors] is the factorisation [(p_i, c_i); ...]
   of the order of [base] (pairwise distinct primes).  Solves each
   prime-power instance and combines with the CRT. *)
let pohlig_hellman ctx ~base ~target ~factors : Z.t option =
  let order =
    List.fold_left (fun acc (p, c) -> Z.mul acc (Z.pow p c)) Z.one factors
  in
  let rec go acc = function
    | [] -> Some (Crt.solve (List.rev acc))
    | (p, c) :: rest ->
      let q = Z.pow p c in
      let cofactor = Z.div order q in
      let base_i = Montgomery.powm ctx base cofactor in
      let target_i = Montgomery.powm ctx target cofactor in
      (match pohlig_hellman_prime_power ctx ~base:base_i ~target:target_i ~p ~c with
       | None -> None
       | Some x -> go ((x, q) :: acc) rest)
  in
  go [] factors
