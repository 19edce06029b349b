(* Operation and traffic counters.

   The paper's Tables I and II are analytic: stage-1 cost in modular
   exponentiations, stage-2 cost in modular multiplications, communication
   in multiples of the element length L.  Protocol code increments these
   counters at each site where it actually performs the counted operation,
   and the bench harness checks the measured totals against the closed
   forms.

   Cells are [Atomic.t] so the Domains query pool (lib/pool/pool.ml) can
   bump one shared record from concurrent handlers without losing
   updates; readers take a coherent-enough [snapshot] (each field is read
   atomically; the record as a whole is only quiescently consistent,
   which is what the bench and tests need). *)

type t = {
  user_exp : int Atomic.t;      (* modular exponentiations by the user *)
  server_exp : int Atomic.t;    (* ... by the server *)
  user_mult : int Atomic.t;     (* modular multiplications by the user *)
  server_mult : int Atomic.t;   (* ... by the server *)
  user_bytes : int Atomic.t;    (* bytes sent by the user *)
  server_bytes : int Atomic.t;  (* bytes sent by the server *)
  retries : int Atomic.t;       (* exchange attempts repeated after a fault *)
  drops : int Atomic.t;         (* frames lost or mangled in transit *)
  rejects : int Atomic.t;       (* requests refused by server validation *)
  prime_attempts : int Atomic.t; (* prime-search candidates examined *)
  sieve_rejects : int Atomic.t;  (* candidates killed by the small-prime wheel *)
  mr_calls : int Atomic.t;       (* candidates that reached Miller-Rabin *)
  pool_hits : int Atomic.t;      (* keypool takes served from a stripe *)
  pool_misses : int Atomic.t;    (* takes that found the stripe empty *)
  pool_refills : int Atomic.t;   (* instances built by background workers *)
  pool_steals : int Atomic.t;    (* build tickets claimed by the foreground *)
  cache_hits : int Atomic.t;     (* per-cell instance-cache (LRU) hits *)
  cache_misses : int Atomic.t;   (* ... misses *)
  cache_evictions : int Atomic.t;(* entries dropped by the LRU cap *)
  served : int Atomic.t;         (* requests completed by service workers *)
  sheds : int Atomic.t;          (* requests refused by admission control *)
  batch_served : int Atomic.t;   (* drained batches dispatched by workers *)
  batch_size_sum : int Atomic.t; (* total requests across those batches *)
  update_applied : int Atomic.t; (* update batches applied to a live server *)
  update_blocks : int Atomic.t;  (* individual blocks rewritten by updates *)
  epoch_bumps : int Atomic.t;    (* database epoch advances observed *)
}

(* Plain-integer view for readers (tests, bench, reporting). *)
type snapshot = {
  user_exp : int;
  server_exp : int;
  user_mult : int;
  server_mult : int;
  user_bytes : int;
  server_bytes : int;
  retries : int;
  drops : int;
  rejects : int;
  prime_attempts : int;
  sieve_rejects : int;
  mr_calls : int;
  pool_hits : int;
  pool_misses : int;
  pool_refills : int;
  pool_steals : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  served : int;
  sheds : int;
  batch_served : int;
  batch_size_sum : int;
  update_applied : int;
  update_blocks : int;
  epoch_bumps : int;
}

let create () : t =
  {
    user_exp = Atomic.make 0;
    server_exp = Atomic.make 0;
    user_mult = Atomic.make 0;
    server_mult = Atomic.make 0;
    user_bytes = Atomic.make 0;
    server_bytes = Atomic.make 0;
    retries = Atomic.make 0;
    drops = Atomic.make 0;
    rejects = Atomic.make 0;
    prime_attempts = Atomic.make 0;
    sieve_rejects = Atomic.make 0;
    mr_calls = Atomic.make 0;
    pool_hits = Atomic.make 0;
    pool_misses = Atomic.make 0;
    pool_refills = Atomic.make 0;
    pool_steals = Atomic.make 0;
    cache_hits = Atomic.make 0;
    cache_misses = Atomic.make 0;
    cache_evictions = Atomic.make 0;
    served = Atomic.make 0;
    sheds = Atomic.make 0;
    batch_served = Atomic.make 0;
    batch_size_sum = Atomic.make 0;
    update_applied = Atomic.make 0;
    update_blocks = Atomic.make 0;
    epoch_bumps = Atomic.make 0;
  }

(* A shared do-nothing sink for callers that don't measure.  The bump
   sites below test physical equality against it, so unmeasured calls
   skip the write entirely: before domains this was one shared mutable
   record that every unmeasured caller scribbled on. *)
let null : t = create ()

let snapshot (t : t) : snapshot =
  {
    user_exp = Atomic.get t.user_exp;
    server_exp = Atomic.get t.server_exp;
    user_mult = Atomic.get t.user_mult;
    server_mult = Atomic.get t.server_mult;
    user_bytes = Atomic.get t.user_bytes;
    server_bytes = Atomic.get t.server_bytes;
    retries = Atomic.get t.retries;
    drops = Atomic.get t.drops;
    rejects = Atomic.get t.rejects;
    prime_attempts = Atomic.get t.prime_attempts;
    sieve_rejects = Atomic.get t.sieve_rejects;
    mr_calls = Atomic.get t.mr_calls;
    pool_hits = Atomic.get t.pool_hits;
    pool_misses = Atomic.get t.pool_misses;
    pool_refills = Atomic.get t.pool_refills;
    pool_steals = Atomic.get t.pool_steals;
    cache_hits = Atomic.get t.cache_hits;
    cache_misses = Atomic.get t.cache_misses;
    cache_evictions = Atomic.get t.cache_evictions;
    served = Atomic.get t.served;
    sheds = Atomic.get t.sheds;
    batch_served = Atomic.get t.batch_served;
    batch_size_sum = Atomic.get t.batch_size_sum;
    update_applied = Atomic.get t.update_applied;
    update_blocks = Atomic.get t.update_blocks;
    epoch_bumps = Atomic.get t.epoch_bumps;
  }

let reset (t : t) =
  Atomic.set t.user_exp 0;
  Atomic.set t.server_exp 0;
  Atomic.set t.user_mult 0;
  Atomic.set t.server_mult 0;
  Atomic.set t.user_bytes 0;
  Atomic.set t.server_bytes 0;
  Atomic.set t.retries 0;
  Atomic.set t.drops 0;
  Atomic.set t.rejects 0;
  Atomic.set t.prime_attempts 0;
  Atomic.set t.sieve_rejects 0;
  Atomic.set t.mr_calls 0;
  Atomic.set t.pool_hits 0;
  Atomic.set t.pool_misses 0;
  Atomic.set t.pool_refills 0;
  Atomic.set t.pool_steals 0;
  Atomic.set t.cache_hits 0;
  Atomic.set t.cache_misses 0;
  Atomic.set t.cache_evictions 0;
  Atomic.set t.served 0;
  Atomic.set t.sheds 0;
  Atomic.set t.batch_served 0;
  Atomic.set t.batch_size_sum 0;
  Atomic.set t.update_applied 0;
  Atomic.set t.update_blocks 0;
  Atomic.set t.epoch_bumps 0

let copy (t : t) : t =
  let s = snapshot t in
  {
    user_exp = Atomic.make s.user_exp;
    server_exp = Atomic.make s.server_exp;
    user_mult = Atomic.make s.user_mult;
    server_mult = Atomic.make s.server_mult;
    user_bytes = Atomic.make s.user_bytes;
    server_bytes = Atomic.make s.server_bytes;
    retries = Atomic.make s.retries;
    drops = Atomic.make s.drops;
    rejects = Atomic.make s.rejects;
    prime_attempts = Atomic.make s.prime_attempts;
    sieve_rejects = Atomic.make s.sieve_rejects;
    mr_calls = Atomic.make s.mr_calls;
    pool_hits = Atomic.make s.pool_hits;
    pool_misses = Atomic.make s.pool_misses;
    pool_refills = Atomic.make s.pool_refills;
    pool_steals = Atomic.make s.pool_steals;
    cache_hits = Atomic.make s.cache_hits;
    cache_misses = Atomic.make s.cache_misses;
    cache_evictions = Atomic.make s.cache_evictions;
    served = Atomic.make s.served;
    sheds = Atomic.make s.sheds;
    batch_served = Atomic.make s.batch_served;
    batch_size_sum = Atomic.make s.batch_size_sum;
    update_applied = Atomic.make s.update_applied;
    update_blocks = Atomic.make s.update_blocks;
    epoch_bumps = Atomic.make s.epoch_bumps;
  }

let bump (t : t) (cell : int Atomic.t) (n : int) =
  if t != null then ignore (Atomic.fetch_and_add cell n)

let user_exp (t : t) n = bump t t.user_exp n
let server_exp (t : t) n = bump t t.server_exp n
let user_mult (t : t) n = bump t t.user_mult n
let server_mult (t : t) n = bump t t.server_mult n
let user_bytes (t : t) n = bump t t.user_bytes n
let server_bytes (t : t) n = bump t t.server_bytes n
let retries (t : t) n = bump t t.retries n
let drops (t : t) n = bump t t.drops n
let rejects (t : t) n = bump t t.rejects n
let prime_attempts (t : t) n = bump t t.prime_attempts n
let sieve_rejects (t : t) n = bump t t.sieve_rejects n
let mr_calls (t : t) n = bump t t.mr_calls n
let pool_hits (t : t) n = bump t t.pool_hits n
let pool_misses (t : t) n = bump t t.pool_misses n
let pool_refills (t : t) n = bump t t.pool_refills n
let pool_steals (t : t) n = bump t t.pool_steals n
let cache_hits (t : t) n = bump t t.cache_hits n
let cache_misses (t : t) n = bump t t.cache_misses n
let cache_evictions (t : t) n = bump t t.cache_evictions n
let served (t : t) n = bump t t.served n
let sheds (t : t) n = bump t t.sheds n
let batch_served (t : t) n = bump t t.batch_served n
let batch_size_sum (t : t) n = bump t t.batch_size_sum n
let update_applied (t : t) n = bump t t.update_applied n
let update_blocks (t : t) n = bump t t.update_blocks n
let epoch_bumps (t : t) n = bump t t.epoch_bumps n

let pp fmt (t : t) =
  let s = snapshot t in
  Format.fprintf fmt
    "@[user: %d exp, %d mult, %d B sent; server: %d exp, %d mult, %d B sent; \
     transport: %d retries, %d drops, %d rejects; prime search: %d \
     candidates, %d sieved out, %d MR-tested; keypool: %d hits, %d misses, \
     %d refills, %d steals; instance cache: %d hits, %d misses, %d \
     evictions; service: %d served, %d shed, %d batches (%d requests); \
     updates: %d applied, %d blocks, %d epoch bumps@]"
    s.user_exp s.user_mult s.user_bytes s.server_exp s.server_mult
    s.server_bytes s.retries s.drops s.rejects s.prime_attempts
    s.sieve_rejects s.mr_calls s.pool_hits s.pool_misses s.pool_refills
    s.pool_steals s.cache_hits s.cache_misses s.cache_evictions s.served
    s.sheds s.batch_served s.batch_size_sum s.update_applied s.update_blocks
    s.epoch_bumps

(* ------------------------------------------------------------------ *)
(* GC pressure                                                          *)
(* ------------------------------------------------------------------ *)

(* Allocated-words snapshots, so bench rows can report how much a hot
   loop allocates (minor + promoted-into-major + direct-major words).
   These read the runtime's global [Gc.quick_stat]; in multi-domain
   phases the numbers are the whole process's allocation, which is what
   a regression trajectory wants anyway. *)

type gc_words = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
}

let gc_words () : gc_words =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    major_words = s.Gc.major_words;
    promoted_words = s.Gc.promoted_words;
  }

let gc_delta ~(since : gc_words) : gc_words =
  let now = gc_words () in
  {
    minor_words = now.minor_words -. since.minor_words;
    major_words = now.major_words -. since.major_words;
    promoted_words = now.promoted_words -. since.promoted_words;
  }
