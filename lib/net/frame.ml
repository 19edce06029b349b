(* Wire framing for protocol messages travelling through the mobile
   service provider: a fixed header, a type tag, and a CRC-32 trailer.

     magic (2 B) | type (1 B) | length (4 B) | payload | crc32 (4 B)

   The CRC covers type + length + payload and catches transport
   corruption (radio links, §II-B's mobile setting); malicious
   modification is caught by the protocol's own MACs. *)

module Crc32 = Lbq_crypto.Crc32

exception Bad_frame of string

(* Typed decode failures: every way raw bytes can fail to be a frame.
   [decode_result] returns these; [decode] wraps them in {!Bad_frame} for
   callers that prefer the exception. *)
type error =
  | Truncated                  (* shorter than header + trailer *)
  | Bad_magic
  | Bad_kind of int            (* out-of-range frame type byte *)
  | Bad_length                 (* length field disagrees with the bytes *)
  | Crc_mismatch

let error_message = function
  | Truncated -> "truncated frame"
  | Bad_magic -> "bad magic"
  | Bad_kind n -> Printf.sprintf "unknown frame type %d" n
  | Bad_length -> "bad length"
  | Crc_mismatch -> "crc mismatch"

type kind =
  | Bootstrap_request
  | Bootstrap
  | Ot_query
  | Ot_response
  | Pir_query
  | Pir_response
  | Error_report

let kind_to_byte = function
  | Bootstrap_request -> 0
  | Bootstrap -> 1
  | Ot_query -> 2
  | Ot_response -> 3
  | Pir_query -> 4
  | Pir_response -> 5
  | Error_report -> 6

let kind_of_byte = function
  | 0 -> Some Bootstrap_request
  | 1 -> Some Bootstrap
  | 2 -> Some Ot_query
  | 3 -> Some Ot_response
  | 4 -> Some Pir_query
  | 5 -> Some Pir_response
  | 6 -> Some Error_report
  | _ -> None

let kind_name = function
  | Bootstrap_request -> "bootstrap-request"
  | Bootstrap -> "bootstrap"
  | Ot_query -> "ot-query"
  | Ot_response -> "ot-response"
  | Pir_query -> "pir-query"
  | Pir_response -> "pir-response"
  | Error_report -> "error"

type t = { kind : kind; payload : string }

let magic = "\x4c\x51" (* "LQ" *)

let header_len = 2 + 1 + 4
let trailer_len = 4
let overhead = header_len + trailer_len

let u32 v =
  String.init 4 (fun k -> Char.chr ((v lsr ((3 - k) * 8)) land 0xff))

let read_u32 s off =
  let v = ref 0 in
  for k = 0 to 3 do
    v := (!v lsl 8) lor Char.code s.[off + k]
  done;
  !v

let encode (f : t) : string =
  let body =
    String.make 1 (Char.chr (kind_to_byte f.kind))
    ^ u32 (String.length f.payload)
    ^ f.payload
  in
  magic ^ body ^ u32 (Crc32.digest body)

let decode_result (s : string) : (t, error) result =
  if String.length s < overhead then Error Truncated
  else if not (String.equal (String.sub s 0 2) magic) then Error Bad_magic
  else
    match kind_of_byte (Char.code s.[2]) with
    | None -> Error (Bad_kind (Char.code s.[2]))
    | Some kind ->
      let len = read_u32 s 3 in
      if len < 0 || String.length s <> overhead + len then Error Bad_length
      else begin
        (* body = type (1) + length (4) + payload, exactly what encode
           CRCs. *)
        let body = String.sub s 2 (5 + len) in
        let crc = read_u32 s (header_len + len) in
        if crc <> Crc32.digest body then Error Crc_mismatch
        else Ok { kind; payload = String.sub s header_len len }
      end

let decode (s : string) : t =
  match decode_result s with
  | Ok f -> f
  | Error e -> raise (Bad_frame (error_message e))
