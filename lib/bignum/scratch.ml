(* Per-domain reusable limb workspaces for the bignum engines.

   The limb-level kernels (CIOS Montgomery, Barrett's windowed reduction,
   Wexp recoding) each need a handful of temporary buffers per operation.
   Allocating them per call is what drove the ~10^10 minor GC words per
   run that BENCH_keypool.json exposed, so instead every domain owns a
   small pool of growable [int array] slots, reached through
   [Domain.DLS].  A single global key (rather than one key per context)
   keeps the DLS table bounded no matter how many Montgomery/Barrett
   contexts a server creates, and per-domain storage makes the engines
   safe under {!Lbq_net.Service}, whose worker domains run responds
   concurrently against one shared server.

   Slot discipline:
   - Each distinct buffer that can be live at the same moment gets its
     own slot id, assigned once below.  Two engines may share an id only
     if their uses can never nest (they cannot here: every user is a
     leaf computation that performs no callbacks and never re-enters the
     bignum engines through a different slot's borrow).
   - A borrow ([get ~slot len]) is valid until the next [get] of the
     SAME slot on the same domain.  Callers must not retain the array
     beyond their operation or hand it to user code.
   - Returned buffers carry stale contents from previous borrows;
     callers overwrite or [Array.fill] the window they use. *)

let slot_count = 12

(* Slot registry — the single place documenting which buffers coexist.
   Montgomery's CIOS core holds [mont_acc] while its operands may sit in
   [mont_op_a]/[mont_op_b]; the squaring path holds [mont_prod] instead
   of [mont_acc].  Barrett's windowed reduction holds the product, the
   q1*mu product and the folded remainder simultaneously.  Wexp recoding
   holds its bit table and ops tape at once.  No Montgomery op calls
   into Barrett or Wexp (and vice versa) while holding a borrow, but the
   ids are kept globally distinct anyway so the invariant is structural
   rather than behavioural. *)
let mont_acc = 0
let mont_prod = 1
let mont_op_a = 2
let mont_op_b = 3
let barrett_prod = 4
let barrett_qmu = 5
let barrett_r = 6
let wexp_bits = 7
let wexp_ops = 8

let key : int array array Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Array.make slot_count [||])

(* Borrow slot [slot] with capacity at least [len] limbs.  Growth is
   geometric so a slot ratchets up to its steady-state size in O(log)
   reallocations and then never allocates again. *)
let get ~slot (len : int) : int array =
  let pool = Domain.DLS.get key in
  let b = Array.unsafe_get pool slot in
  if Array.length b >= len then b
  else begin
    let cap = max len (2 * Array.length b) in
    let nb = Array.make cap 0 in
    pool.(slot) <- nb;
    nb
  end
