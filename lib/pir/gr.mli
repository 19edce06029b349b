(** Gentry–Ramzan single-database PIR with constant communication rate —
    stage 2 of the paper (§III-D, Algorithm 3, Appendix B).

    The server's whole database is one integer [e] (CRT over per-record
    prime powers); a query is one group description [(N, g)] hiding which
    prime power divides [phi(N)]; the answer is the single element
    [g^e mod N]. *)

open Lbq_bignum
module Counters = Lbq_metrics.Counters

(** One record slot: the record with this index must satisfy
    [0 <= record < pi = p^c]. *)
type slot = { p : Z.t; c : int; pi : Z.t }

type plan

(** The "predictable pattern" of prime powers (§III-B): the first [count]
    primes from [first] (default 3), each raised to the least power giving
    at least [block_bits] bits of capacity.  The paper's setting is
    [make_plan ~count:225 ~block_bits:1024 ()] — 3{^647}, 5{^442}, ... *)
val make_plan : ?first:int -> count:int -> block_bits:int -> unit -> plan

val plan_size : plan -> int
val plan_block_bits : plan -> int
val plan_slot : plan -> int -> slot

(** Does value [v] fit in slot [i]? *)
val fits : plan -> int -> Z.t -> bool

(** Sub-plan holding exactly the parent slots named by [indices] (order
    preserved, slots shared verbatim), for sharded serving: a shard's
    server CRT-encodes only its own records, so its [e_d] — and every
    respond — shrinks proportionally.  A client instance built against
    the parent plan for a slot in [indices] decodes the shard's response
    unchanged, since [e_d ≡ e (mod pi)] for every shard slot.  Raises
    [Invalid_argument] on empty, out-of-range, or duplicate indices. *)
val plan_restrict : plan -> indices:int array -> plan

module Server : sig
  type t

  (** CRT-encode the records (one integer per slot, within capacity). *)
  val create : ?metrics:Counters.t -> plan -> Z.t array -> t

  (** The database-as-one-integer. *)
  val e : t -> Z.t

  val e_bits : t -> int
  val plan : t -> plan

  (** The sliding-window schedule of [e], recoded once per epoch and
      replayed by every {!respond}. *)
  val schedule : t -> Wexp.t

  (** Update generation of this server's database: 0 at creation,
      bumped by every {!update_block}.  Mirrors the keypool's
      generation tickets — a response is always computed against one
      epoch's [e], never a torn mix. *)
  val epoch : t -> int

  (** [update_block t ~idx ~block] replaces record [idx] with [block]
      and re-derives [e] incrementally: a root-to-leaf fix-up of the
      retained CRT product tree (O(log t) combines, Bezout inverses
      cached at build — no inversions) plus a {!Lbq_bignum.Wexp.refresh}
      of the cached schedule, instead of an O(t) full rebuild.  Bumps
      {!epoch}.  Raises [Invalid_argument] when [idx] is out of range or
      [block] exceeds slot [idx]'s prime-power capacity. *)
  val update_block : t -> idx:int -> block:Z.t -> unit

  (** Exact modular multiplications one {!respond} performs on the
      default (Montgomery) engine: [Wexp.cost (schedule t) + 1] for the
      conversion of [g] into Montgomery form.  The updated Table II
      closed form that the bench asserts. *)
  val predicted_mults : t -> int

  (** Widest modulus a legitimate query can need for this plan with
      cofactor primes of [q_bits] bits (resource-exhaustion guard). *)
  val max_modulus_bits : t -> q_bits:int -> int

  (** Answer k queries [(N, g)] with [g^e mod N] through one walk of
      the cached schedule ({!Lbq_bignum.Montgomery.powm_sched_batch}) —
      the Table II server cost, measured per query through the engine
      counter.  Honest moduli [N = Q0·Q1] are odd and served by
      Montgomery REDC; even/edge moduli fall back to the sequential
      Barrett path.  Every query is validated before any work: [g] out
      of range and, when [max_n_bits] is given, oversized moduli raise
      [Invalid_argument]. *)
  val respond_batch : ?max_n_bits:int -> t -> (Z.t * Z.t) array -> Z.t array

  (** Answer one query: [respond_batch] on [[| (n, g) |]]. *)
  val respond : ?max_n_bits:int -> t -> n:Z.t -> g:Z.t -> Z.t
end

module Client : sig
  type state

  (** Build the phi-hiding instance for [index]: semi-safe primes
      [Q0 = 2 q0 pi + 1], [Q1 = 2 q1 + 1] with [q0], [q1] of [q_bits]
      bits (paper: 128), modulus [N = Q0 Q1], and a quasi-generator [g]
      whose order retains the full [pi] factor.  Returns the state and
      the wire query [(N, g)].  The primality search here dominates
      Table IV's query time. *)
  val query :
    ?metrics:Counters.t -> plan:plan -> index:int -> q_bits:int ->
    (int -> string) -> state * (Z.t * Z.t)

  val modulus : state -> Z.t
  val generator : state -> Z.t

  (** The wire query [(N, g)] of this instance, recoverable from the
      state alone (a pooled instance re-emits its query on take). *)
  val wire : state -> Z.t * Z.t

  (** The trapdoor factorisation [(Q0, Q1)] of the modulus — what the
      phi-hiding assumption keeps from the server.  Exposed so offline
      instance builders can sanity-check and tests can cross-check. *)
  val factors : state -> Z.t * Z.t

  (** Build every response-independent decode table now: the subgroup
      base [h = g{^phi/pi}], the Pohlig–Hellman power and inverse-power
      tables, and the shared baby-step table.  This is the offline half
      of the offline/online split ({!Lbq_cache.Keypool} calls it from
      its refill workers); a prepared state's {!decode} costs one
      exponentiation plus the giant steps.  Idempotent. *)
  val prepare : state -> unit

  (** Recover the record: raise to [phi/pi] and take a Pohlig–Hellman
      discrete log in the order-pi subgroup.  The subgroup base
      [h = g{^phi/pi}] and the solver's tables are cached in the state on
      first use, so decoding further responses for the same instance is
      cheaper.  Raises [Invalid_argument] if the response is not in the
      expected subgroup (tampering). *)
  val decode : state -> Z.t -> Z.t
end

(** One full round: query, respond, decode. *)
val fetch :
  ?metrics:Counters.t -> server:Server.t -> index:int -> q_bits:int ->
  (int -> string) -> Z.t
