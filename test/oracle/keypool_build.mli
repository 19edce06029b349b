(** The sequential reference for {!Lbq_cache.Keypool}: the instance a
    pool seeded with [seed] must hand out for (index, generation), built
    inline with no pool at all.  Tests and [bench keypool] assert pooled
    output is byte-identical to it for any worker count and
    interleaving. *)

open Lbq_bignum
module Gr = Lbq_pir.Gr

(** Forks the child stream [Drbg.split ~label:"i<index>/g<generation>"]
    from [Drbg.create ~domain:"lbq-keypool" ~seed], runs the stage-2
    query on it and prepares the decode tables.  [metrics] receives the
    build's prime-search counters. *)
val build :
  ?metrics:Lbq_metrics.Counters.t -> seed:string -> plan:Gr.plan ->
  q_bits:int -> index:int -> generation:int -> unit ->
  Gr.Client.state * (Z.t * Z.t)
