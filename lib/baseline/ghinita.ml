(* The comparison baseline: the hybrid protocol of Ghinita et al.
   (SSTD'09 / GeoInformatica'10), reproduced at the fidelity the paper's
   §V cost analysis uses.

   Stage 1 — homomorphic cell membership: the user Paillier-encrypts her
   coordinates (4 exponentiations / 4L bits).  For EVERY cell (alpha,
   beta) of the n×m grid the server homomorphically forms four blinded
   differences
       E(r * (x - left)),  E(r' * (right - x)),
       E(s * (y - bottom)), E(s' * (top - y))
   — 4(n·m) exponentiations and 4(n·m) ciphertexts (8(n·m)L bits), which
   the user decrypts (up to 4(n·m) exponentiations) and tests for sign:
   her cell is the one whose four differences are all non-negative.
   Random blinding hides the magnitudes while preserving the sign, because
   coordinates and blinders are tiny next to the Paillier modulus.

   Stage 2 — Kushilevitz–Ostrovsky QR-PIR over the a×b matrix of cell
   blocks: sqrt-of-database communication, a·b multiplications per
   bit-plane on the server (Table II's comparison row).

   Contrast with the paper's protocol: stage-1 cost O(n·m) vs O(n+m), and
   nothing stops a malicious user running stage 2 for any cell — the
   blocks are not individually keyed (this is exactly the content-
   protection gap the paper's OT stage closes). *)

open Lbq_bignum
open Lbq_group
open Lbq_geo
module Qr_pir = Lbq_qrpir.Qr_pir
module Counters = Lbq_metrics.Counters
module Drbg = Lbq_crypto.Drbg

exception Protocol_error of string

(* Coordinates are scaled to integer decimetres before encryption: the
   homomorphic comparison works on integers, and 0.1 m resolution is far
   below any realistic cell size, so the rounding cannot move a user
   across a membership boundary by more than one decimetre. *)
let scale = 10.
let to_units f = Z.of_int (int_of_float (Float.round (f *. scale)))

(* Blinders: small enough that |blinder * difference| << n/2. *)
let blinder_bits = 32

(* ------------------------------------------------------------------ *)
(* Server                                                               *)
(* ------------------------------------------------------------------ *)

type stage1_query = { ex : Z.t; ey : Z.t; pub : Paillier.public_key }

(* Four blinded differences per grid cell, row-major. *)
type stage1_response = (Z.t * Z.t * Z.t * Z.t) array

type t = {
  metrics : Counters.t;
  rand : int -> string;
  grid : Grid.lattice;             (* the n×m membership-test grid *)
  partition : Grid.partition;      (* the a×b PIR block matrix *)
  qr_server : Qr_pir.Server.t;
  qr_rows : int;
  qr_cols : int;
}

let create ?(metrics = Counters.null) ?(seed = "lbq-baseline")
    ~(area : Coord.Rect.t) ~grid_rows ~grid_cols ~private_rows ~private_cols
    ~rmax (pois : Poi.t list) : t =
  let drbg = Drbg.create ~domain:"baseline-server" ~seed () in
  let grid = Grid.lattice ~area ~rows:grid_rows ~cols:grid_cols in
  let partition =
    Grid.partition ~rmax ~area ~rows:private_rows ~cols:private_cols pois
  in
  (* The PIR database: plaintext cell blocks arranged a×b. *)
  let blocks =
    Array.init private_rows (fun r ->
        Array.init private_cols (fun c ->
            let idx = Grid.q_index partition { Grid.row = r; col = c } in
            Poi.encode_block (Grid.cell_pois partition idx)))
  in
  let qr_server = Qr_pir.Server.create ~metrics blocks in
  { metrics; rand = Drbg.rand drbg; grid; partition; qr_server;
    qr_rows = private_rows; qr_cols = private_cols }

let grid t = t.grid
let partition t = t.partition

(* Stage-1 handler: 4 homomorphic-scale exponentiations per cell. *)
let stage1_respond (t : t) (q : stage1_query) : stage1_response =
  let pub = q.pub in
  let rows = Grid.lattice_rows t.grid and cols = Grid.lattice_cols t.grid in
  let blinder () =
    Z.succ (Z.random_bits ~bits:blinder_bits t.rand)
  in
  let resp =
    Array.init (rows * cols) (fun idx ->
        let row = idx / cols and col = idx mod cols in
        let rect = Grid.cell_rect t.grid { Grid.row = row; col } in
        let x0 = to_units (Coord.x (Coord.Rect.min rect)) in
        let x1 = to_units (Coord.x (Coord.Rect.max rect)) in
        let y0 = to_units (Coord.y (Coord.Rect.min rect)) in
        let y1 = to_units (Coord.y (Coord.Rect.max rect)) in
        (* E(r*(x - x0)): scale E(x) by r, subtract r*x0 as plaintext. *)
        let diff ciph ~bound ~flip =
          let r = blinder () in
          let scaled =
            if flip then Paillier.scale pub ciph (Z.neg r)
            else Paillier.scale pub ciph r
          in
          let shift = if flip then Z.mul r bound else Z.neg (Z.mul r bound) in
          Counters.server_exp t.metrics 1;
          Paillier.add_plain pub scaled shift
        in
        ( diff q.ex ~bound:x0 ~flip:false,   (* r (x - x0) >= 0  *)
          diff q.ex ~bound:x1 ~flip:true,    (* r (x1 - x) >= 0  *)
          diff q.ey ~bound:y0 ~flip:false,
          diff q.ey ~bound:y1 ~flip:true ))
  in
  let el = (Z.numbits (Paillier.modulus_squared pub) + 7) / 8 in
  Counters.server_bytes t.metrics (4 * rows * cols * el);
  resp

(* Stage-2 handler: plain QR-PIR modulo the client's modulus. *)
let stage2_respond (t : t) ~(n : Z.t) (query : Z.t array) : Z.t array array =
  Qr_pir.Server.respond t.qr_server ~n query

(* ------------------------------------------------------------------ *)
(* Client                                                               *)
(* ------------------------------------------------------------------ *)

module Client = struct
  type client = {
    metrics : Counters.t;
    rand : int -> string;
    paillier : Paillier.private_key;
    qr : Qr_pir.private_key;
    grid : Grid.lattice;
    qr_rows : int;
    qr_cols : int;
    rmax : int;
  }

  let create ?(metrics = Counters.null) ?(seed = "lbq-baseline-user")
      ?(paillier_bits = 512) ?(qr_bits = 512) (server : t) : client =
    let drbg = Drbg.create ~domain:"baseline-user" ~seed () in
    let rand = Drbg.rand drbg in
    { metrics; rand;
      paillier = Paillier.keygen ~bits:paillier_bits rand;
      qr = Qr_pir.keygen ~bits:qr_bits rand;
      grid = grid server;
      qr_rows = server.qr_rows;
      qr_cols = server.qr_cols;
      rmax = Grid.rmax server.partition }

  (* Encrypt the coordinates: 2 Paillier ciphertexts, counted as the
     paper does (4 exponentiations, 4L bits). *)
  let stage1_query (c : client) (position : Coord.t) : stage1_query =
    let pub = Paillier.public_of_private c.paillier in
    let ex = Paillier.encrypt pub ~rand:c.rand (to_units (Coord.x position)) in
    let ey = Paillier.encrypt pub ~rand:c.rand (to_units (Coord.y position)) in
    Counters.user_exp c.metrics 4;
    let el = (Z.numbits (Paillier.modulus_squared pub) + 7) / 8 in
    Counters.user_bytes c.metrics (2 * el);
    { ex; ey; pub }

  (* Decrypt blinded differences until the user's cell is found; in the
     worst case all 4(n·m) of them. *)
  (* Cells are half-open on their upper edges except in the last row /
     column (the far edge of the area belongs to the last cell), matching
     [Grid.cell_of_coord]; without this, a user on an interior boundary
     would match two cells. *)
  let stage1_decode (c : client) (resp : stage1_response) : Grid.cell =
    let n = Paillier.modulus (Paillier.public_of_private c.paillier) in
    let half = Z.shift_right n 1 in
    let non_negative v = Z.lt v half in
    let positive v = non_negative v && not (Z.is_zero v) in
    let cols = Grid.lattice_cols c.grid in
    let rows = Grid.lattice_rows c.grid in
    let rec find idx =
      if idx >= Array.length resp then
        raise (Protocol_error "stage 1: no containing cell")
      else begin
        let row = idx / cols and col = idx mod cols in
        let d1, d2, d3, d4 = resp.(idx) in
        let dec v =
          Counters.user_exp c.metrics 1;
          Paillier.decrypt c.paillier v
        in
        let upper_ok last d = if last then non_negative d else positive d in
        if non_negative (dec d1)
           && upper_ok (col = cols - 1) (dec d2)
           && non_negative (dec d3)
           && upper_ok (row = rows - 1) (dec d4)
        then { Grid.row = row; col }
        else find (idx + 1)
      end
    in
    find 0

  (* Stage 2: QR-PIR fetch of the private cell under the found cell.
     The client's modulus travels with the query. *)
  let qr_modulus (c : client) = Qr_pir.modulus (Qr_pir.public_of_private c.qr)

  let stage2_query (c : client) ~(target : Grid.cell) =
    Qr_pir.Client.query ~metrics:c.metrics ~sk:c.qr ~cols:c.qr_cols
      ~target_col:target.Grid.col c.rand

  let stage2_decode (c : client) st planes ~(target : Grid.cell) : Poi.t list =
    if target.Grid.row < 0 || target.Grid.row >= c.qr_rows then
      raise (Protocol_error "stage 2: row out of range");
    let block =
      Qr_pir.Client.decode_block st planes ~target_row:target.Grid.row
    in
    let pois =
      try Poi.decode_block block
      with Invalid_argument _ -> raise (Protocol_error "stage 2: corrupt block")
    in
    if List.length pois <> c.rmax then
      raise (Protocol_error "stage 2: wrong block size");
    List.filter (fun p -> not (Poi.is_dummy p)) pois
end

(* ------------------------------------------------------------------ *)
(* One full baseline round                                              *)
(* ------------------------------------------------------------------ *)

let run_round (client : Client.client) (server : t) ~(position : Coord.t)
  : Poi.t list * Grid.cell =
  let q1 = Client.stage1_query client position in
  let r1 = stage1_respond server q1 in
  let membership_cell = Client.stage1_decode client r1 in
  (* Map the membership cell to the private block under its centre. *)
  let centre = Grid.cell_center server.grid membership_cell in
  let target =
    Grid.cell_of_coord (Grid.q_lattice server.partition) centre
  in
  let st, q2 = Client.stage2_query client ~target in
  let r2 = stage2_respond server ~n:(Client.qr_modulus client) q2 in
  Client.stage2_decode client st r2 ~target, membership_cell
