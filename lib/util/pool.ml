(* A batch is the unit of work published to the pool.  Workers that wake
   up late (after the batch is already drained) still hold a reference to
   *their* batch, whose [next] counter is exhausted — they take zero jobs
   and never touch a newer batch's counter, which is what makes reusing
   the pool across map_jobs calls race-free. *)
type batch = {
  run : int -> unit;
  len : int;
  next : int Atomic.t;
  mutable remaining : int; (* jobs not yet completed; under the pool mutex *)
  counts : int array; (* jobs drained per executor; slot i owned by executor i *)
}

type t = {
  n : int;
  m : Mutex.t;
  work_cv : Condition.t; (* workers wait here for a new generation *)
  done_cv : Condition.t; (* the caller waits here for batch completion *)
  mutable gen : int;
  mutable current : batch option;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
  mutable last_counts : int array option; (* instrumentation; caller-domain reads only *)
}

let clamp_domains d = max 0 (min d 64)

let default_num_domains () = max 0 (min (Domain.recommended_domain_count () - 1) 15)

(* True while the current domain is executing pool work: for the lifetime
   of a worker domain, and inside [map_jobs] on the calling domain.  A
   nested [map_jobs] (a job that fans out on a pool itself) must not
   publish a second batch — workers are already busy and the caller would
   deadlock waiting on them — so it runs its jobs inline instead.  Inline
   execution returns the same results (the scheduling model is
   order-insensitive by construction), only the parallelism degenerates. *)
let inside_pool : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Drain [b]: claim indices until the counter runs past the end.  Returns
   how many jobs this domain completed so the caller can settle the
   batch's [remaining] under the mutex.  [who] is this executor's slot in
   [b.counts] (workers 0..n-1, the caller n) — each slot is written by
   exactly one domain, and the caller only reads them after [remaining]
   reaches zero under the mutex, so the counts need no atomics. *)
let drain (b : batch) ~who =
  let completed = ref 0 in
  let rec go () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.len then begin
      b.run i;
      incr completed;
      go ()
    end
  in
  go ();
  (* A worker that woke up late drains 0 jobs; skipping the write keeps it
     from touching [counts] after the caller has already collected them.
     Nonzero contributions are written before [settle] decrements
     [remaining], so the caller's read after completion is ordered. *)
  if !completed > 0 then b.counts.(who) <- b.counts.(who) + !completed;
  !completed

let settle t b completed =
  Mutex.lock t.m;
  b.remaining <- b.remaining - completed;
  if b.remaining = 0 then Condition.broadcast t.done_cv;
  Mutex.unlock t.m

let worker t ~who =
  Domain.DLS.set inside_pool true;
  let my_gen = ref 0 in
  let rec loop () =
    Mutex.lock t.m;
    while (not t.stop) && t.gen = !my_gen do
      Condition.wait t.work_cv t.m
    done;
    if t.stop then Mutex.unlock t.m
    else begin
      my_gen := t.gen;
      let b = t.current in
      Mutex.unlock t.m;
      (match b with
      | Some b -> settle t b (drain b ~who)
      | None -> ());
      loop ()
    end
  in
  loop ()

let create ?num_domains () =
  let n = clamp_domains (Option.value num_domains ~default:(default_num_domains ())) in
  let t =
    {
      n;
      m = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      gen = 0;
      current = None;
      stop = false;
      domains = [];
      last_counts = None;
    }
  in
  t.domains <- List.init n (fun who -> Domain.spawn (fun () -> worker t ~who));
  t

let num_domains t = t.n
let last_job_counts t = Option.map Array.copy t.last_counts

let map_jobs t jobs f =
  let len = Array.length jobs in
  if len = 0 then [||]
  else if Domain.DLS.get inside_pool then
    (* Nested call from a worker (or from a job running on the calling
       domain): run inline.  Same results, no second batch. *)
    Array.map f jobs
  else begin
    Domain.DLS.set inside_pool true;
    Fun.protect ~finally:(fun () -> Domain.DLS.set inside_pool false) @@ fun () ->
    let results = Array.make len None in
    let run i =
      let r =
        try Ok (f jobs.(i)) with e -> Error (e, Printexc.get_raw_backtrace ())
      in
      results.(i) <- Some r
    in
    let b =
      { run; len; next = Atomic.make 0; remaining = len; counts = Array.make (t.n + 1) 0 }
    in
    Mutex.lock t.m;
    if t.stop then begin
      Mutex.unlock t.m;
      invalid_arg "Pool.map_jobs: pool is shut down"
    end;
    t.current <- Some b;
    t.gen <- t.gen + 1;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.m;
    (* The caller is a worker too: with num_domains = 0 it does everything,
       and otherwise it never sits idle while jobs remain. *)
    let completed = drain b ~who:t.n in
    Mutex.lock t.m;
    b.remaining <- b.remaining - completed;
    while b.remaining > 0 do
      Condition.wait t.done_cv t.m
    done;
    t.current <- None;
    Mutex.unlock t.m;
    t.last_counts <- Some b.counts;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false (* remaining = 0 implies every slot was written *))
      results
  end

let shutdown t =
  Mutex.lock t.m;
  let already = t.stop in
  t.stop <- true;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.m;
  if not already then begin
    List.iter Domain.join t.domains;
    t.domains <- []
  end
