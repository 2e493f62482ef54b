(** Deterministic, splittable pseudo-random number generator.

    All randomness used by the protocols and experiments flows through this
    module, so every run is reproducible from a single integer seed.  The
    implementation is SplitMix64 for seeding and state splitting, with a
    Xoshiro256** core for the main stream.  It is {e not} cryptographically
    secure; cryptographic randomness in the library is derived from
    {!Crypto.Sha256} in counter mode seeded by values drawn here (adequate
    for a simulation, documented in DESIGN.md). *)

type t

(** [create seed] makes a fresh generator from a 64-bit seed. *)
val create : int -> t

(** [split t] derives an independent generator; [t] advances. *)
val split : t -> t

(** [derive t ~key] is a counter-keyed child stream: a pure function of
    [t]'s current state and [key].  The parent is read but {e not}
    advanced, so the result does not depend on the order (or domain) in
    which children are derived — [derive] with distinct keys can be called
    concurrently from parallel jobs and still yields the same streams as
    any sequential derivation order.  Distinct keys give independent
    streams (up to the quality of the SplitMix64 mix).  Note that drawing
    from the parent {e between} two derivations changes the state the
    second child is keyed against — derive all children from one fixed
    parent position. *)
val derive : t -> key:int -> t

(** [copy t] duplicates the current state (same future stream). *)
val copy : t -> t

(** [bits64 t] returns 64 uniformly random bits as an [int64]. *)
val bits64 : t -> int64

(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)
val int : t -> int -> int

(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. Requires [lo <= hi]. *)
val int_in : t -> int -> int -> int

(** [float t] is uniform in [\[0, 1)]. *)
val float : t -> float

(** [bool t] is a fair coin. *)
val bool : t -> bool

(** [bernoulli t p] is [true] with probability [p] (clamped to [\[0,1\]]). *)
val bernoulli : t -> float -> bool

(** [byte t] is uniform in [\[0, 255\]]. *)
val byte : t -> int

(** [bytes t len] is a fresh uniformly random byte string. *)
val bytes : t -> int -> bytes

(** [shuffle t arr] permutes [arr] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit

(** [sample_array t ~n ~k] returns [k] distinct values drawn uniformly
    from [\[0, n)], in increasing order.  Requires [0 <= k <= n].  When
    [2k >= n] it shuffles the identity permutation of [\[0, n)] and
    keeps a prefix, in O(n) (the prefix is sorted by marking it in an
    n-byte map and scanning that).  Otherwise it draws with {!int} and
    skips repeats until it holds [k] values; the draws are taken in
    batches, each sorted in place and merged with the values held, so a
    call costs O(k log k) expected with no hash table and no list. *)
val sample_array : t -> n:int -> k:int -> int array

(** [sample_without_replacement t ~n ~k] is {!sample_array} as a list:
    the same values from the same draws. *)
val sample_without_replacement : t -> n:int -> k:int -> int list

(** [sample_into t ~n ~k ~scratch ~dst ~pos] writes the same [k] sorted
    draws [sample_without_replacement t ~n ~k] would return into
    [dst.(pos) .. dst.(pos + k - 1)], consuming the identical draw
    sequence from [t].  In the dense regime ([2k >= n]) it is
    allocation-free, using [scratch] (length >= [n], contents ignored)
    as permutation space — hot-loop callers keep one scratch per worker
    and reuse it across calls. *)
val sample_into :
  t -> n:int -> k:int -> scratch:int array -> dst:int array -> pos:int -> unit

(** [pick t lst] picks a uniform element. Requires a non-empty list. *)
val pick : t -> 'a list -> 'a

(** [subset_bernoulli t ~n ~p] independently includes each of [0..n-1] with
    probability [p]; returns the included indices in increasing order. *)
val subset_bernoulli : t -> n:int -> p:float -> int list
