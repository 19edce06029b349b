(** Per-domain reusable limb workspaces for the bignum engine.

    One global [Domain.DLS] key holds a small pool of growable
    [int array] slots per domain, so the steady-state CIOS Montgomery
    hot paths run without per-operation allocation
    while staying safe under the Domains worker pool.

    Discipline: a borrow is valid until the next {!get} of the same
    slot on the same domain; distinct simultaneously-live buffers use
    distinct slot ids (registered in the implementation); contents are
    stale on borrow and must be overwritten by the caller. *)

val slot_count : int

(** Slot ids.  Assigned centrally so overlap is impossible by
    construction; see the implementation for the coexistence notes. *)

val mont_acc : int
val mont_prod : int
val mont_op_b : int

(** [get ~slot len] borrows this domain's buffer for [slot], grown to at
    least [len] limbs.  Stale contents; valid until the next [get] of
    the same slot on this domain. *)
val get : slot:int -> int -> int array
