(* The mobile service provider (SP) of the system model (§II-B): it
   maintains the user <-> LS connection and forwards frames.  The model
   assumes the SP is honest-but-curious and does NOT collude with the LS;
   this module makes precise what such an SP actually observes — frame
   kinds and sizes, never cell indices or coordinates — so the assumption
   can be inspected and tested rather than taken on faith.

   A relay can carry a {!Chaos} fault model: frames forwarded through
   [forward_opt] are then dropped, corrupted, truncated, duplicated,
   reordered or delayed according to the seeded schedule, and the relay
   mirrors lost/mangled frames into its [Counters.drops] metric.  The SP
   logs every transmission it forwards — including retries and duplicate
   copies — because that is exactly the traffic view an observer at the
   SP gets. *)

module Counters = Lbq_metrics.Counters

type direction = Uplink | Downlink

type observation = {
  direction : direction;
  kind : Frame.kind;
  bytes : int;        (* full frame length, header + payload + crc *)
}

type t = {
  link : Link.t;
  chaos : Chaos.t option;
  metrics : Counters.t;
  mutable log : observation list;  (* newest first *)
  mutable clock_s : float;         (* accumulated virtual network time *)
  mutable corrupt_next : bool;     (* legacy one-shot fault hook *)
}

let create ?chaos ?(metrics = Counters.null) ~link () =
  { link; chaos; metrics; log = []; clock_s = 0.; corrupt_next = false }

let link t = t.link
let chaos t = t.chaos

(* Fault injection: flip one payload byte of the next forwarded frame. *)
let corrupt_next_frame t = t.corrupt_next <- true

let log_frame t ~direction bytes =
  let n = String.length bytes in
  (* The SP can parse the framing (it is not encrypted) but sees only
     type and size. *)
  match Frame.decode_result bytes with
  | Ok frame ->
    t.log <- { direction; kind = frame.Frame.kind; bytes = n } :: t.log
  | Error _ ->
    t.log <- { direction; kind = Frame.Error_report; bytes = n } :: t.log

let apply_corrupt_next t bytes =
  if not t.corrupt_next then bytes
  else begin
    t.corrupt_next <- false;
    let n = String.length bytes in
    if n > Frame.header_len then begin
      let b = Bytes.of_string bytes in
      let i = Frame.header_len in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
      Bytes.to_string b
    end
    else bytes
  end

(* Forward an encoded frame, simulating transfer time and recording what
   the SP sees.  Returns the bytes the far side receives — [None] when
   the fault model drops the frame (or delivers it outside the lockstep
   receive window). *)
let forward_opt t ~(direction : direction) (bytes : string) : string option =
  let n = String.length bytes in
  t.clock_s <- t.clock_s +. Link.transfer_time t.link ~bytes:n;
  log_frame t ~direction bytes;
  let bytes = apply_corrupt_next t bytes in
  match t.chaos with
  | None -> Some bytes
  | Some chaos ->
    let v = Chaos.next chaos bytes in
    (* Duplicate copies burn air time and are seen by the SP again. *)
    for _ = 2 to v.Chaos.copies do
      t.clock_s <- t.clock_s +. Link.transfer_time t.link ~bytes:n;
      log_frame t ~direction bytes
    done;
    t.clock_s <- t.clock_s +. v.Chaos.extra_s;
    (match v.Chaos.delivered with
     | None -> Counters.drops t.metrics 1
     | Some b when not (String.equal b bytes) -> Counters.drops t.metrics 1
     | Some _ -> ());
    v.Chaos.delivered

let observations t = List.rev t.log
let network_time_s t = t.clock_s

let reset_clock t = t.clock_s <- 0.

(* Timeout and backoff waits spent by the endpoints also pass on the
   relay's virtual clock. *)
let advance_clock t s =
  if s < 0. then invalid_arg "Relay.advance_clock: negative wait";
  t.clock_s <- t.clock_s +. s

(* What the SP learned: the multiset of (direction, kind, size) triples.
   The test suite asserts this is identical across users querying
   different cells — i.e. the SP's view is independent of the location. *)
let view_fingerprint t : string =
  observations t
  |> List.map (fun o ->
      Printf.sprintf "%s|%s|%d"
        (match o.direction with Uplink -> "up" | Downlink -> "down")
        (Frame.kind_name o.kind) o.bytes)
  |> String.concat ";"
