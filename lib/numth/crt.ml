(* Chinese Remainder Theorem over pairwise-coprime moduli.  The PIR server
   encodes its whole database as the smallest e with e = C_i (mod pi_i). *)

open Lbq_bignum

(* Product-tree (divide-and-conquer) CRT, RETAINED: the balanced tree
   built for one solve is kept so a later single-residue change is a
   root-to-leaf fix-up — O(log k) combines over ever-halving operand
   sizes — instead of an O(k) rebuild.  Moduli are fixed at [build]:
   every node's product M and the Bezout inverse ml^{-1} (mod mr) it
   combines with are precomputed once, so [update_leaf] pays only the
   path's multiplications, never an inversion.

   The big multiplications pair operands of SIMILAR size, where the
   subquadratic {!Nat.mul} (Karatsuba/Toom) actually bites, instead of
   a sequential fold's large-by-small products.  Validation is
   equivalent to the fold's: each leaf checks its modulus > 1, and
   gcd(M_l, M_r) = 1 at a node iff every cross pair of underlying
   moduli is coprime. *)
module Tree = struct
  type node =
    | Leaf of { mutable x : Z.t; m : Z.t }
    | Node of {
        mutable x : Z.t;  (* combined residue on this node's range *)
        m : Z.t;          (* ml * mr, fixed at build *)
        inv : Z.t;        (* ml^{-1} mod mr, fixed at build *)
        l : node;
        r : node;
      }

  type t = { root : node option; size : int }

  let node_x = function Leaf l -> l.x | Node n -> n.x
  let node_m = function Leaf l -> l.m | Node n -> n.m

  (* x = xl + ml * t with t = (xr - xl) / ml  (mod mr): the unique
     solution below ml * mr, so tree answers are byte-identical to a
     sequential fold's. *)
  let combine ~ml ~mr ~inv ~xl ~xr =
    let t = Z.erem (Z.mul (Z.sub xr xl) inv) mr in
    Z.add xl (Z.mul ml t)

  let build (congruences : (Z.t * Z.t) list) : t =
    match congruences with
    | [] -> { root = None; size = 0 }
    | _ ->
      let a = Array.of_list congruences in
      let rec go lo hi =
        if hi - lo = 1 then begin
          let r, m = a.(lo) in
          if Z.leq m Z.one then invalid_arg "Crt.solve: modulus <= 1";
          Leaf { x = Z.erem r m; m }
        end
        else begin
          let mid = (lo + hi) / 2 in
          let l = go lo mid in
          let r = go mid hi in
          let ml = node_m l and mr = node_m r in
          if not (Z.equal (Z.gcd ml mr) Z.one) then
            invalid_arg "Crt.solve: moduli not coprime";
          let inv = Z.invert ml mr in
          Node
            {
              x = combine ~ml ~mr ~inv ~xl:(node_x l) ~xr:(node_x r);
              m = Z.mul ml mr;
              inv;
              l;
              r;
            }
        end
      in
      { root = Some (go 0 (Array.length a)); size = Array.length a }

  let size t = t.size

  let solve t = match t.root with None -> Z.zero | Some n -> node_x n

  let modulus t = match t.root with None -> Z.one | Some n -> node_m n

  let leaf_modulus t i =
    if i < 0 || i >= t.size then
      invalid_arg "Crt.Tree.leaf_modulus: index out of range";
    let rec go node lo hi =
      match node with
      | Leaf lf -> lf.m
      | Node n ->
        let mid = (lo + hi) / 2 in
        if i < mid then go n.l lo mid else go n.r mid hi
    in
    match t.root with None -> assert false | Some root -> go root 0 t.size

  let update_leaf t i (r : Z.t) =
    if i < 0 || i >= t.size then
      invalid_arg "Crt.Tree.update_leaf: index out of range";
    let rec go node lo hi =
      match node with
      | Leaf lf -> lf.x <- Z.erem r lf.m
      | Node n ->
        let mid = (lo + hi) / 2 in
        if i < mid then go n.l lo mid else go n.r mid hi;
        n.x <-
          combine ~ml:(node_m n.l) ~mr:(node_m n.r) ~inv:n.inv
            ~xl:(node_x n.l) ~xr:(node_x n.r)
    in
    match t.root with None -> assert false | Some root -> go root 0 t.size
end

(* One-shot solve: build a tree and read its root.  Kept as the public
   entry point; callers that will update later hold the Tree instead. *)
let solve (congruences : (Z.t * Z.t) list) : Z.t =
  Tree.solve (Tree.build congruences)

(* Verification helper: does [x] satisfy every congruence? *)
let check (x : Z.t) (congruences : (Z.t * Z.t) list) : bool =
  List.for_all (fun (r, m) -> Z.equal (Z.erem x m) (Z.erem r m)) congruences
