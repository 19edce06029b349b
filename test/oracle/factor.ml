(* Integer factorisation: trial division plus Pollard's rho (Brent cycle
   finding).  Sized for the smooth / semi-smooth numbers this project
   meets — group orders like phi(N) = 4 q0 q1 p^c whose small factors we
   want to enumerate — not for attacking RSA moduli.  Test-only: it
   reproduces Appendix B's factorisation of phi(N) and feeds the general
   Pohlig–Hellman oracle. *)

open Lbq_bignum
open Lbq_numth

(* Pollard rho, Brent's cycle-finding variant with batched gcds; returns
   a non-trivial factor of composite odd n, or None if the bounded walk
   fails for this seed (try another). *)
let rho_once ?(max_iters = 1 lsl 18) (n : Z.t) ~(seed : int) : Z.t option =
  let ctx = Montgomery.create n in
  let c = Z.of_int (1 + seed) in
  let f x = Z.erem (Z.add (Montgomery.mulmod ctx x x) c) n in
  let batch = 64 in
  let y = ref (Z.of_int (2 + seed)) in
  let g = ref Z.one in
  let r = ref 1 and iters = ref 0 in
  let x = ref !y and ys = ref !y in
  (try
     while Z.equal !g Z.one do
       if !iters > max_iters then raise Exit;
       x := !y;
       for _ = 1 to !r do
         y := f !y
       done;
       let k = ref 0 in
       while !k < !r && Z.equal !g Z.one do
         ys := !y;
         let q = ref Z.one in
         let steps = min batch (!r - !k) in
         for _ = 1 to steps do
           y := f !y;
           q := Montgomery.mulmod ctx !q (Z.abs (Z.sub !x !y))
         done;
         g := Z.gcd !q n;
         k := !k + steps
       done;
       iters := !iters + !r;
       r := 2 * !r
     done
   with Exit -> ());
  if Z.equal !g Z.one then None
  else if not (Z.equal !g n) then Some !g
  else begin
    (* The batch jumped past the first collision: replay one step at a
       time from the saved point. *)
    let g = ref Z.one in
    while Z.equal !g Z.one do
      ys := f !ys;
      g := Z.gcd (Z.abs (Z.sub !x !ys)) n
    done;
    if Z.equal !g n then None else Some !g
  end

(* Full factorisation as sorted [(prime, exponent)] pairs.
   [rand] feeds primality tests for large cofactors.  Raises
   [Invalid_argument] on n <= 0 and [Failure] if a composite cofactor
   resists [attempts] rho walks (cryptographically hard cofactor). *)
let factor ?(attempts = 32) ?rand (n : Z.t) : (Z.t * int) list =
  if Z.sign n <= 0 then invalid_arg "Factor.factor: n <= 0";
  let counts : (string, Z.t * int ref) Hashtbl.t = Hashtbl.create 16 in
  let record p =
    let key = Z.to_string p in
    match Hashtbl.find_opt counts key with
    | Some (_, r) -> incr r
    | None -> Hashtbl.add counts key (p, ref 1)
  in
  let rec strip_small n ps =
    match ps with
    | [] -> n
    | p :: rest ->
      let pz = Z.of_int p in
      if Z.lt n (Z.mul pz pz) then n
      else begin
        let n = ref n in
        while Z.is_zero (Z.rem !n pz) do
          record pz;
          n := Z.div !n pz
        done;
        strip_small !n rest
      end
  in
  let rec split (n : Z.t) =
    if Z.equal n Z.one then ()
    else if Primality.is_prime ?rand n then record n
    else begin
      let rec try_seed s =
        if s >= attempts then
          failwith "Factor.factor: cofactor resists Pollard rho"
        else
          match rho_once n ~seed:s with
          | Some d -> d
          | None -> try_seed (s + 1)
      in
      let d = try_seed 0 in
      split d;
      split (Z.div n d)
    end
  in
  let rest = strip_small n (Sieve.primes_below 10_000) in
  if not (Z.equal rest Z.one) then split rest;
  Hashtbl.fold (fun _ (p, r) acc -> (p, !r) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> Z.compare a b)

(* Multiply a factorisation back together. *)
let recompose (factors : (Z.t * int) list) : Z.t =
  List.fold_left (fun acc (p, c) -> Z.mul acc (Z.pow p c)) Z.one factors
