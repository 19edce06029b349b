(* A fixed-size worker pool on OCaml 5 Domains.

   The stage-2 server cost is one huge modular exponentiation per query
   (|e| multiplications, Table II); queries from different users are
   independent, so the paper's §VI remedy — parallel processing to raise
   throughput — maps directly onto one domain per in-flight query.  This
   pool is deliberately tiny: a shared job queue under a mutex/condvar,
   [size] worker domains, and a blocking [map] that distributes an array
   of inputs and re-raises the first worker exception. *)

type job = unit -> unit

type t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  jobs : job Queue.t;
  mutable stopped : bool;
  mutable workers : unit Domain.t array;
}

let default_domains () =
  max 1 (min 4 (Domain.recommended_domain_count () - 1))

let worker pool () =
  let rec loop () =
    Mutex.lock pool.lock;
    while Queue.is_empty pool.jobs && not pool.stopped do
      Condition.wait pool.nonempty pool.lock
    done;
    if Queue.is_empty pool.jobs && pool.stopped then Mutex.unlock pool.lock
    else begin
      let job = Queue.pop pool.jobs in
      Mutex.unlock pool.lock;
      job ();
      loop ()
    end
  in
  loop ()

let create ?domains () =
  let n =
    match domains with
    | None -> default_domains ()
    | Some d when d >= 1 && d <= 64 -> d
    | Some _ -> invalid_arg "Pool.create: domains out of [1, 64]"
  in
  let pool =
    {
      lock = Mutex.create ();
      nonempty = Condition.create ();
      jobs = Queue.create ();
      stopped = false;
      workers = [||];
    }
  in
  pool.workers <- Array.init n (fun _ -> Domain.spawn (worker pool));
  pool

let size t = Array.length t.workers

let submit t job =
  Mutex.lock t.lock;
  if t.stopped then begin
    Mutex.unlock t.lock;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push job t.jobs;
  Condition.signal t.nonempty;
  Mutex.unlock t.lock

(* Apply [f] to every element, workers running concurrently; returns
   results in input order.  The caller's domain blocks on a countdown
   latch; the first exception any job raised is re-raised here after all
   jobs finished (every input is still attempted, keeping the pool
   reusable). *)
let map t (f : 'a -> 'b) (inputs : 'a array) : 'b array =
  let n = Array.length inputs in
  if n = 0 then [||]
  else begin
    let results : 'b option array = Array.make n None in
    let error = Atomic.make None in
    let remaining = Atomic.make n in
    let done_lock = Mutex.create () in
    let all_done = Condition.create () in
    for i = 0 to n - 1 do
      submit t (fun () ->
          (try results.(i) <- Some (f inputs.(i))
           with e ->
             ignore
               (Atomic.compare_and_set error None
                  (Some (e, Printexc.get_raw_backtrace ()))));
          if Atomic.fetch_and_add remaining (-1) = 1 then begin
            (* Last job: wake the caller.  Taking the lock orders this
               signal after the caller's wait. *)
            Mutex.lock done_lock;
            Condition.signal all_done;
            Mutex.unlock done_lock
          end)
    done;
    Mutex.lock done_lock;
    while Atomic.get remaining > 0 do
      Condition.wait all_done done_lock
    done;
    Mutex.unlock done_lock;
    (match Atomic.get error with
     | Some (e, bt) -> Printexc.raise_with_backtrace e bt
     | None -> ());
    Array.map
      (function
        | Some r -> r
        | None -> invalid_arg "Pool.map: job finished without a result")
      results
  end

let shutdown t =
  Mutex.lock t.lock;
  if not t.stopped then begin
    t.stopped <- true;
    Condition.broadcast t.nonempty
  end;
  Mutex.unlock t.lock;
  Array.iter Domain.join t.workers;
  t.workers <- [||]

let with_pool ?domains f =
  let pool = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
