(** Fixed-size [Domain]-based worker pool with a deterministic parallel
    map — the engine behind [bench/main.exe]'s sweep-level [--jobs] and
    the soak's schedule fan-out.  It runs whole independent jobs (a sweep
    point, a soak schedule), never the parties of one protocol round.

    {b Scheduling model.}  {!map_jobs} publishes a job array to the pool;
    workers (plus the calling domain, which always participates) claim
    jobs by index from a shared atomic counter and write each result back
    at the job's own index.  Aggregation order is therefore the array
    order — {e independent of scheduling} — so any output assembled from
    the result array (tables, fitted exponents, JSON records) is
    bit-identical whatever the worker count.  Only wall-clock changes.

    {b Domain-safety contract.}  Jobs run concurrently on separate
    domains, so the job function must not touch shared mutable state:
    every [Netsim.Net.t], [Util.Prng.t], cache or accumulator it uses
    must be created inside the job (or be immutable).  All protocol
    modules in this library follow that discipline — their memo tables
    ([Equality.pairwise], [View_check], [All_to_all], [Enc_func],
    [Garble]) are per-call — so a job that builds its own network and RNG
    is safe by construction.  The pool itself adds the necessary
    synchronization: results written by a worker happen-before the return
    of {!map_jobs}.

    A pool holds its domains until {!shutdown}; idle workers block on a
    condition variable and cost nothing between calls. *)

type t

(** Default worker count: [Domain.recommended_domain_count () - 1]
    (reserving the calling domain), clamped to [0, 15]. *)
val default_num_domains : unit -> int

(** [create ?num_domains ()] spawns the worker domains immediately.
    [num_domains] is clamped to [0, 64] (counts above the core count are
    legal and simply oversubscribe — the pool microbenchmark uses this to
    measure dispatch overhead at fixed worker counts); [0] is legal —
    {!map_jobs} then runs every job on the calling domain, which is the
    degenerate sequential case. *)
val create : ?num_domains:int -> unit -> t

(** Workers actually spawned (after clamping). *)
val num_domains : t -> int

(** [map_jobs t jobs f] = [Array.map f jobs], computed by the pool.
    Results land at their job's index, so the output equals the
    sequential map regardless of scheduling.  If any [f jobs.(i)] raises,
    the remaining jobs still run to completion and the exception of the
    {e lowest} such index is re-raised in the caller (deterministically).
    Reentrancy: a {!map_jobs} issued from inside a job (on any pool) does
    not publish a second batch — it runs its jobs inline on the current
    domain and returns the same results.  The workers are all busy with
    the outer batch, so publishing would leave the nested caller waiting
    on itself; inline, a nested call is merely sequential, which is
    observationally identical. *)
val map_jobs : t -> 'a array -> ('a -> 'b) -> 'b array

(** Instrumentation: how many jobs each executor drained in the most
    recent {e non-inline} {!map_jobs} call on this pool — slots [0..n-1]
    are the worker domains, slot [n] the calling domain; the counts sum to
    the batch length.  [None] until a batch has run.  Nested (inline)
    calls leave the record untouched.  The split between executors is
    scheduling-dependent (workers race for jobs), so treat it as a load
    observation, not something to assert exact values on. *)
val last_job_counts : t -> int array option

(** Terminates the workers (idempotent).  Further {!map_jobs} calls raise
    [Invalid_argument]. *)
val shutdown : t -> unit
