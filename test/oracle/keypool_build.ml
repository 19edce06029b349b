module Gr = Lbq_pir.Gr
module Drbg = Lbq_crypto.Drbg

let build ?(metrics = Lbq_metrics.Counters.null) ~seed ~plan ~q_bits ~index
    ~generation () =
  let base = Drbg.create ~domain:"lbq-keypool" ~seed () in
  let label = Printf.sprintf "i%d/g%d" index generation in
  let st, wire =
    Gr.Client.query ~metrics ~plan ~index ~q_bits
      (Drbg.rand (Drbg.split base ~label))
  in
  Gr.Client.prepare st;
  (st, wire)
