(* Operation and traffic counters.

   The paper's Tables I and II are analytic: stage-1 cost in modular
   exponentiations, stage-2 cost in modular multiplications, communication
   in multiples of the element length L.  Protocol code increments these
   counters at each site where it actually performs the counted operation,
   and the bench harness checks the measured totals against the closed
   forms.

   Cells are [Atomic.t] so the Domains query pool (lib/pool/pool.ml) can
   bump one shared set of counters from concurrent handlers without
   losing updates; readers take a coherent-enough [snapshot] (each field
   is read atomically; the record as a whole is only quiescently
   consistent, which is what the bench and tests need). *)

(* One cell per counter, indexed in [snapshot]-field order. *)
type t = int Atomic.t array

(* Plain-integer view for readers (tests, bench, reporting). *)
type snapshot = {
  user_exp : int;         (* modular exponentiations by the user *)
  server_exp : int;       (* ... by the server *)
  user_mult : int;        (* modular multiplications by the user *)
  server_mult : int;      (* ... by the server *)
  user_bytes : int;       (* bytes sent by the user *)
  server_bytes : int;     (* bytes sent by the server *)
  retries : int;          (* exchange attempts repeated after a fault *)
  drops : int;            (* frames lost or mangled in transit *)
  rejects : int;          (* requests refused by server validation *)
  prime_attempts : int;   (* prime-search candidates examined *)
  sieve_rejects : int;    (* candidates killed by the segment sieve *)
  mr_calls : int;         (* candidates that reached an exponentiation:
                             Miller-Rabin or a Pocklington certificate *)
  pool_hits : int;        (* keypool takes served from a stripe *)
  pool_misses : int;      (* takes that found the stripe empty *)
  pool_refills : int;     (* instances built by background workers *)
  pool_steals : int;      (* build tickets claimed by the foreground *)
  cache_hits : int;       (* per-cell instance-cache (LRU) hits *)
  cache_misses : int;     (* ... misses *)
  cache_evictions : int;  (* entries dropped by the LRU cap *)
  served : int;           (* requests completed by service workers *)
  sheds : int;            (* requests refused by admission control *)
  batch_served : int;     (* drained batches dispatched by workers *)
  batch_size_sum : int;   (* total requests across those batches *)
  update_applied : int;   (* update batches applied to a live server *)
  update_blocks : int;    (* individual blocks rewritten by updates *)
  epoch_bumps : int;      (* database epoch advances observed *)
}

let cells = 26

let create () : t = Array.init cells (fun _ -> Atomic.make 0)

(* A shared do-nothing sink for callers that don't measure.  The bump
   sites below test physical equality against it, so unmeasured calls
   skip the write entirely: before domains this was one shared mutable
   record that every unmeasured caller scribbled on. *)
let null : t = create ()

let snapshot (t : t) : snapshot =
  let g i = Atomic.get t.(i) in
  {
    user_exp = g 0;
    server_exp = g 1;
    user_mult = g 2;
    server_mult = g 3;
    user_bytes = g 4;
    server_bytes = g 5;
    retries = g 6;
    drops = g 7;
    rejects = g 8;
    prime_attempts = g 9;
    sieve_rejects = g 10;
    mr_calls = g 11;
    pool_hits = g 12;
    pool_misses = g 13;
    pool_refills = g 14;
    pool_steals = g 15;
    cache_hits = g 16;
    cache_misses = g 17;
    cache_evictions = g 18;
    served = g 19;
    sheds = g 20;
    batch_served = g 21;
    batch_size_sum = g 22;
    update_applied = g 23;
    update_blocks = g 24;
    epoch_bumps = g 25;
  }

let reset (t : t) = Array.iter (fun c -> Atomic.set c 0) t

let bump (t : t) i n =
  if t != null then ignore (Atomic.fetch_and_add t.(i) n)

let user_exp t n = bump t 0 n
let server_exp t n = bump t 1 n
let user_mult t n = bump t 2 n
let server_mult t n = bump t 3 n
let user_bytes t n = bump t 4 n
let server_bytes t n = bump t 5 n
let retries t n = bump t 6 n
let drops t n = bump t 7 n
let rejects t n = bump t 8 n
let prime_attempts t n = bump t 9 n
let sieve_rejects t n = bump t 10 n
let mr_calls t n = bump t 11 n
let pool_hits t n = bump t 12 n
let pool_misses t n = bump t 13 n
let pool_refills t n = bump t 14 n
let pool_steals t n = bump t 15 n
let cache_hits t n = bump t 16 n
let cache_misses t n = bump t 17 n
let cache_evictions t n = bump t 18 n
let served t n = bump t 19 n
let sheds t n = bump t 20 n
let batch_served t n = bump t 21 n
let batch_size_sum t n = bump t 22 n
let update_applied t n = bump t 23 n
let update_blocks t n = bump t 24 n
let epoch_bumps t n = bump t 25 n

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
