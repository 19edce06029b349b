(* Wire format for protocol messages.  Fixed-width big-endian group
   elements (the paper's element length L), small big-endian length
   prefixes where a count is dynamic.  The transcript byte counts of
   Tables I/II come from these encoders, not from hand-derived formulas. *)

open Lbq_bignum
open Lbq_group
module Ot = Lbq_ot.Ot

exception Malformed of string

let u32 v = String.init 4 (fun k -> Char.chr ((v lsr ((3 - k) * 8)) land 0xff))

let read_u32 s off =
  if off + 4 > String.length s then raise (Malformed "truncated u32");
  let v = ref 0 in
  for k = 0 to 3 do
    v := (!v lsl 8) lor Char.code s.[off + k]
  done;
  !v

let element group (z : Z.t) : string =
  try Z.to_bytes_be_padded z ~len:(Ot.element_len group)
  with Invalid_argument _ -> raise (Malformed "element out of range")

let read_element group s off =
  let len = Ot.element_len group in
  if off + len > String.length s then raise (Malformed "truncated element");
  Z.of_bytes_be (String.sub s off len), off + len

(* ---------------- OT query: 4 fixed-width elements ---------------- *)

let ot_query_encode group (q : Ot.query) : string =
  String.concat ""
    [ element group q.Ot.c1.Elgamal.a; element group q.Ot.c1.Elgamal.b;
      element group q.Ot.c2.Elgamal.a; element group q.Ot.c2.Elgamal.b ]

let ot_query_decode group (s : string) : Ot.query =
  if String.length s <> 4 * Ot.element_len group then
    raise (Malformed "ot query length");
  let a1, off = read_element group s 0 in
  let b1, off = read_element group s off in
  let a2, off = read_element group s off in
  let b2, _ = read_element group s off in
  { Ot.c1 = { Elgamal.a = a1; b = b1 }; c2 = { Elgamal.a = a2; b = b2 } }

(* ---------------- OT response: counts + element pairs -------------- *)

let ot_response_encode group (r : Ot.response) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (u32 (Array.length r.Ot.rows));
  Buffer.add_string buf (u32 (Array.length r.Ot.cols));
  let add (u, v) =
    Buffer.add_string buf (element group u);
    Buffer.add_string buf (element group v)
  in
  Array.iter add r.Ot.rows;
  Array.iter add r.Ot.cols;
  Buffer.contents buf

let ot_response_decode group (s : string) : Ot.response =
  let nrows = read_u32 s 0 in
  let ncols = read_u32 s 4 in
  if nrows < 0 || ncols < 0 || nrows + ncols > 1_000_000 then
    raise (Malformed "ot response counts");
  let el = Ot.element_len group in
  let expected = 8 + (2 * (nrows + ncols) * el) in
  if String.length s <> expected then raise (Malformed "ot response length");
  let off = ref 8 in
  let pair () =
    let u, o = read_element group s !off in
    let v, o = read_element group s o in
    off := o;
    u, v
  in
  let rows = Array.init nrows (fun _ -> pair ()) in
  let cols = Array.init ncols (fun _ -> pair ()) in
  { Ot.rows; cols }

(* ---------------- PIR query / response ----------------------------- *)

(* (N, g) with explicit lengths: N's width is chosen by the user. *)
let pir_query_encode ((n, g) : Z.t * Z.t) : string =
  let nb = Z.to_bytes_be n and gb = Z.to_bytes_be g in
  String.concat "" [ u32 (String.length nb); nb; u32 (String.length gb); gb ]

(* Hard cap on a serialized PIR integer: far above any deployment's
   modulus, low enough that a hostile length field cannot make the
   server allocate or exponentiate at megabyte widths. *)
let max_pir_int_len = 1 lsl 20

(* Only the encoder's own output is accepted: [Z.to_bytes_be] writes no
   leading zero byte (and zero as the empty string, which the length
   check refuses), so a decoded query re-encodes to identical bytes. *)
let pir_query_decode (s : string) : Z.t * Z.t =
  let nlen = read_u32 s 0 in
  if nlen = 0 || nlen > max_pir_int_len then
    raise (Malformed "pir query N length");
  if 4 + nlen + 4 > String.length s then raise (Malformed "pir query N");
  if s.[4] = '\000' then raise (Malformed "pir query N not canonical");
  let nb = String.sub s 4 nlen in
  let glen = read_u32 s (4 + nlen) in
  if glen = 0 || glen > max_pir_int_len then
    raise (Malformed "pir query g length");
  if 8 + nlen + glen <> String.length s then raise (Malformed "pir query length");
  if s.[8 + nlen] = '\000' then raise (Malformed "pir query g not canonical");
  let gb = String.sub s (8 + nlen) glen in
  Z.of_bytes_be nb, Z.of_bytes_be gb

(* g^e mod N, padded to |N|. *)
let pir_response_encode ~(n : Z.t) (ge : Z.t) : string =
  let len = (Z.numbits n + 7) / 8 in
  (try Z.to_bytes_be_padded ge ~len
   with Invalid_argument _ -> raise (Malformed "pir response out of range"))

let pir_response_decode (s : string) : Z.t = Z.of_bytes_be s

(* ---------------- public info (bootstrap download) ------------------ *)

(* Everything a fresh user needs before the first round: parameters,
   area, the masked OT table.  The PIR plan is not shipped: it is
   recomputed from (private dims, rmax) — it is a deterministic
   "predictable pattern" (§III-B), so shipping it would only add bytes. *)

let f64 (v : float) : string =
  let bits = Int64.bits_of_float v in
  String.init 8 (fun k ->
      Char.chr
        (Int64.to_int
           (Int64.logand (Int64.shift_right_logical bits ((7 - k) * 8)) 0xFFL)))

let read_f64 s off =
  if off + 8 > String.length s then raise (Malformed "truncated f64");
  let bits = ref 0L in
  for k = 0 to 7 do
    bits :=
      Int64.logor (Int64.shift_left !bits 8)
        (Int64.of_int (Char.code s.[off + k]))
  done;
  Int64.float_of_bits !bits

let lp (s : string) : string = u32 (String.length s) ^ s

let read_lp s off =
  let len = read_u32 s off in
  if len < 0 || off + 4 + len > String.length s then raise (Malformed "truncated field");
  String.sub s (off + 4) len, off + 4 + len

let public_info_encode (info : Server.public_info) : string =
  let open Lbq_geo in
  let p = info.Server.params in
  let buf = Buffer.create 4096 in
  let add_i v = Buffer.add_string buf (u32 v) in
  let add_s v = Buffer.add_string buf (lp v) in
  add_i p.Params.public_rows;
  add_i p.Params.public_cols;
  add_i p.Params.private_rows;
  add_i p.Params.private_cols;
  add_i p.Params.rmax;
  add_i p.Params.q_bits;
  add_s (Z.to_hex (Schnorr.p p.Params.group));
  add_s (Z.to_hex (Schnorr.q p.Params.group));
  add_s (Z.to_hex (Schnorr.g p.Params.group));
  Buffer.add_string buf (f64 (Coord.x (Coord.Rect.min info.Server.area)));
  Buffer.add_string buf (f64 (Coord.y (Coord.Rect.min info.Server.area)));
  Buffer.add_string buf (f64 (Coord.x (Coord.Rect.max info.Server.area)));
  Buffer.add_string buf (f64 (Coord.y (Coord.Rect.max info.Server.area)));
  let table = info.Server.masked_table in
  let cell_len = String.length table.(0).(0) in
  add_i cell_len;
  Array.iter (fun row -> Array.iter (Buffer.add_string buf) row) table;
  Buffer.contents buf

let public_info_decode (s : string) : Server.public_info =
  let open Lbq_geo in
  let off = ref 0 in
  let get_i () = let v = read_u32 s !off in off := !off + 4; v in
  let get_s () = let v, o = read_lp s !off in off := o; v in
  let get_f () = let v = read_f64 s !off in off := !off + 8; v in
  let public_rows = get_i () in
  let public_cols = get_i () in
  let private_rows = get_i () in
  let private_cols = get_i () in
  let rmax = get_i () in
  let q_bits = get_i () in
  (* Explicit sequencing: argument evaluation order is unspecified. *)
  let p_hex = get_s () in
  let q_hex = get_s () in
  let g_hex = get_s () in
  let group =
    try
      Schnorr.of_params ~p:(Z.of_hex p_hex) ~q:(Z.of_hex q_hex)
        ~g:(Z.of_hex g_hex)
    with Invalid_argument m -> raise (Malformed m)
  in
  let x0 = get_f () in
  let y0 = get_f () in
  let x1 = get_f () in
  let y1 = get_f () in
  if not (Float.is_finite x0 && Float.is_finite y0 && Float.is_finite x1
          && Float.is_finite y1 && x0 <= x1 && y0 <= y1)
  then raise (Malformed "bad area");
  let area =
    Coord.Rect.make ~min:(Coord.make ~x:x0 ~y:y0) ~max:(Coord.make ~x:x1 ~y:y1)
  in
  let params =
    try
      Params.make ~q_bits ~group ~public_rows ~public_cols ~private_rows
        ~private_cols ~rmax ()
    with Invalid_argument m -> raise (Malformed m)
  in
  let cell_len = get_i () in
  if cell_len <= 0 || cell_len > 4096 then raise (Malformed "bad cell length");
  let expected = !off + (public_rows * public_cols * cell_len) in
  if expected <> String.length s then raise (Malformed "public info length");
  let masked_table =
    Array.init public_rows (fun row ->
        Array.init public_cols (fun col ->
            let idx = !off + (((row * public_cols) + col) * cell_len) in
            String.sub s idx cell_len))
  in
  let public_grid =
    Grid.lattice ~area ~rows:public_rows ~cols:public_cols
  in
  let plan =
    Lbq_pir.Gr.make_plan ~count:(private_rows * private_cols)
      ~block_bits:(Params.block_bits params) ()
  in
  { Server.params; area; public_grid; masked_table; plan }
