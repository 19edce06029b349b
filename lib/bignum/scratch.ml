(* Per-domain reusable limb workspaces for the bignum engine.

   The limb-level Montgomery kernels each need a handful of temporary
   buffers per operation.  Allocating them per call is what drove the
   ~10^10 minor GC words per run that BENCH_keypool.json exposed, so
   instead every domain owns a small pool of growable [int array]
   slots, reached through [Domain.DLS].  A single global key (rather
   than one key per context) keeps the DLS table bounded no matter how
   many Montgomery contexts a server creates, and per-domain storage
   makes the engines safe under {!Lbq_net.Service}, whose worker domains run responds
   concurrently against one shared server.

   Slot discipline:
   - Each distinct buffer that can be live at the same moment gets its
     own slot id, assigned once below.  Two kernels may share an id only
     if their uses can never nest (they cannot here: every user is a
     leaf computation that performs no callbacks and never re-enters the
     bignum kernels through a different slot's borrow).
   - A borrow ([get ~slot len]) is valid until the next [get] of the
     SAME slot on the same domain.  Callers must not retain the array
     beyond their operation or hand it to user code.
   - Returned buffers carry stale contents from previous borrows;
     callers overwrite or [Array.fill] the window they use. *)

let slot_count = 3

(* Slot registry — the single place documenting which buffers coexist.
   Montgomery's CIOS core holds [mont_acc] while [mulmod]'s second
   operand may sit in [mont_op_b]; the exit REDC holds [mont_prod]. *)
let mont_acc = 0
let mont_prod = 1
let mont_op_b = 2

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
