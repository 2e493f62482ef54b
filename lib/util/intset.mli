(** Compact mutable set of non-negative ints — open addressing over a
    flat [int array].

    [Netsim.Net] keeps one of these per party that has sent or
    received, for peer/locality tracking, so the representation is sized for
    "hundreds of thousands of instances holding tens of elements each":
    a three-word record plus one unboxed int array, no per-element boxes.
    Compare [(int, unit) Hashtbl.t] (a bucket array plus a four-word
    cons per element) or the persistent {!Iset} (a five-word AVL node
    per element) — at n = 10⁶ parties with degree ~80 the difference is
    gigabytes.

    Membership is linear probing over a power-of-two table at load
    factor <= 3/4; elements are stored directly, [(-1)] marks an empty
    slot, which is why members must be [>= 0].  A set of d elements
    holds a table of at most 8d/3 words (at least 8); a caller that
    knows how many elements are coming calls {!reserve} first, so the
    table grows once instead of doubling its way up.  Not domain-safe: an
    instance is single-owner mutable state, like the network that holds
    it. *)

type t

(** [create ?capacity ()] — an empty set whose table already holds
    [capacity] elements (default 0: the minimum table of 8 slots); the
    table grows by doubling regardless. *)
val create : ?capacity:int -> unit -> t

(** [reserve t m] grows the table once, to the smallest that holds [m]
    elements within the load bound; a no-op when it already does.  Adds
    up to [m] elements in total then never rehash. *)
val reserve : t -> int -> unit

(** [add t v] inserts [v] ([>= 0], else [Invalid_argument]); no-op when
    already present. *)
val add : t -> int -> unit

val mem : t -> int -> bool

(** Number of elements, O(1). *)
val cardinal : t -> int

(** [iter f t] — {e unspecified} order (table order). *)
val iter : (int -> unit) -> t -> unit

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** Members in increasing order (sorts on each call). *)
val to_sorted_list : t -> int list

(** The same elements as a persistent {!Iset}. *)
val to_iset : t -> Iset.t
