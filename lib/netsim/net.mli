(** Synchronous point-to-point network simulator.

    This is the substrate every protocol in the library runs on.  It models
    exactly the paper's network: [n] parties, a complete graph of private
    point-to-point channels, lockstep synchronous rounds, and {e no}
    broadcast primitive.  A party "broadcasting" must pay [n-1] separate
    messages — which is the entire subject of the paper.

    The simulator accounts, per party:
    - bits sent and received (message payloads, 8 bits per byte),
    - the set of distinct peers communicated with ({b locality}),
    - message counts and round counts.

    Communication complexity is defined as in §3.1 of the paper: the total
    number of bits sent by all parties {e when following the protocol
    honestly}; the experiment harness therefore measures cost on
    honest runs, and separately exercises adversarial runs for the
    correctness/abort properties.

    Performance contract: resident state is O(n) words plus the traffic
    parties actually exchanged, so one representation runs every n from
    the unit tests to the giant tier's 10⁶ parties.  {!send} is O(1)
    amortized: counter updates, one append to an edge log (one word per
    message) and one transport submit.  The peer sets are brought up to
    date from the log in one fold, which sizes each touched set once for
    all its new entries, at every {!step} (before delivery) and at every
    peer query ({!peers}, {!locality}, {!max_locality}), so those
    queries mutate the network.  The log holds one word per message
    sent since the last fold, in a buffer kept from round to round (at
    most twice the busiest round's messages).  {!step} under the sync
    transport delivers in one pass when the round's sends ascended by
    sender, as every protocol's loop over an ascending party list
    sends them; {!recv} is linear in the
    party's inbox; and {!recv_from}/{!recv_one} take O(log m) plus the
    sender's own messages in an inbox of m messages.  A party's inbox record is
    created on its first delivery and its peer set at the first fold
    that sees it; untouched parties cost one word per per-party array.
    {!peers} copies the set into an {!Util.Iset} (a reporting call, not
    a hot one).

    Domain-safety contract: a [t] is single-owner mutable state with no
    internal locking, driven by one domain from start to finish — each
    protocol round is a plain loop over its parties on that domain.  Two
    domains must never touch the same instance; one domain may freely
    own many.  The bench harness's parallel scheduler relies on this:
    every job creates its own network (plus its own [Util.Prng.t] — same
    contract), which is sufficient because no protocol module in the
    library keeps mutable state that outlives a single [run] call. *)

type t

(** Accepted by {!create} and ignored: the network has one
    representation, whichever constructor is passed.  Kept only so
    callers written against the former two-backend interface still
    build; new code should not mention it. *)
type backend =
  | Dense
  | Sparse

(** Raised by {!step} when the round clock reaches a [max_rounds] bound
    (set at [create] or tightened by {!with_round_limit}) — the livelock
    watchdog for adversarial runs.  The clock it counts is the same
    virtual clock the transports tick on (one tick per {!step}), so
    under {!Event_net} this is a virtual-time bound on the whole
    delivery schedule, not just on lockstep rounds. *)
exception Livelock of { rounds : int; max_rounds : int }

(** [create ?backend ?transport ?max_rounds n] — a fresh network of
    parties [0 .. n-1].  [backend] is ignored (see {!type-backend}).

    [transport] is the delivery schedule ({!Transport.t}); it defaults
    to {!Transport.sync}, the synchronous lockstep transport, which
    preserves the historical semantics bit-for-bit.  Pass
    [Event_net.transport] for asynchronous delivery with latency,
    reordering, and adversarial scheduling.

    With [~max_rounds:m] (must be positive), the [m+1]-th {!step} raises
    {!Livelock} instead of advancing, so a protocol driven into an
    unbounded loop by a fault schedule fails with a diagnosable exception
    rather than hanging.  Default: no bound, exactly the old behavior.

    [n] must be in [\[1, 2^31\]] (the edge log packs two party ids into
    one word); otherwise [Invalid_argument]. *)
val create : ?backend:backend -> ?transport:Transport.t -> ?max_rounds:int -> int -> t

val n : t -> int

(** {1 Sending and receiving} *)

(** [send t ~src ~dst payload] enqueues a message for delivery at the next
    {!step}.  Self-sends are free and forbidden ([Invalid_argument]). *)
val send : t -> src:int -> dst:int -> bytes -> unit

(** [step t] advances the round clock by one tick, delivering whatever
    the transport releases for that tick.  Under the default synchronous
    transport that is {e all} pending messages, readable by their
    recipients in arrival order (deterministic: sorted by sender id,
    then send order); under an event transport, only the messages whose
    schedule says they are due. *)
val step : t -> unit

(** [in_flight t] — messages sent but not yet delivered.  Always zero
    after {!step} on the synchronous transport; may stay positive for
    up to [Event_net.span] ticks on an event transport. *)
val in_flight : t -> int

(** [step_until_quiet ?deadline t] — {!step} once, then keep stepping
    while messages remain in flight, up to [deadline] steps total
    (default 1; must be >= 1).  This is the protocol-level round-timeout
    knob: on a synchronous transport the network quiesces after one step
    so any [deadline] behaves identically to plain {!step} (accounting
    and round counts unchanged), while on an event transport a phase
    that allows [deadline >= Event_net.span cfg] steps observes every
    message sent before the phase began, and a smaller deadline makes
    late messages surface as the protocol's own abort path (missing
    value / failed check) rather than a livelock. *)
val step_until_quiet : ?deadline:int -> t -> unit

(** [steps_remaining t] — how many more {!step}s the watchdog allows
    ([max_int] when unbounded).  Round-driving loops use this to stop
    {e before} tripping {!Livelock} when they have a graceful-degrade
    path. *)
val steps_remaining : t -> int

(** [with_round_limit t ~extra f] runs [f ()] with the watchdog
    tightened to [rounds t + extra] (never loosened: an existing tighter
    bound stays authoritative), restoring the previous bound on exit.
    This is how a protocol with a local round cap (gossip) expresses it
    through the one shared {!Livelock} mechanism instead of a private
    counter.  [extra] must be positive. *)
val with_round_limit : t -> extra:int -> (unit -> 'a) -> 'a

(** [recv t ~dst] drains and returns party [dst]'s inbox as
    [(sender, payload)] pairs. *)
val recv : t -> dst:int -> (int * bytes) list

(** [recv_from t ~dst ~src] — only the messages from [src] (drains just
    those). *)
val recv_from : t -> dst:int -> src:int -> bytes list

(** [recv_one t ~dst ~src] is [Some payload] iff exactly one message from
    [src] is pending (draining the queue in every case, like
    {!recv_from}) — the allocation-free form of matching {!recv_from}
    against a one-element list, for lockstep hot loops. *)
val recv_one : t -> dst:int -> src:int -> bytes option

(** [peek t ~dst] — inbox contents without draining. *)
val peek : t -> dst:int -> (int * bytes) list

(** {1 Accounting} *)

val rounds : t -> int

(** [bits_sent t i] — total payload bits sent by party [i] so far. *)
val bits_sent : t -> int -> int

val bits_received : t -> int -> int

(** [total_bits t] — sum over all parties of bits sent. *)
val total_bits : t -> int

(** [total_bits_of t parties] — bits sent by the given parties only (used to
    report honest-only communication). *)
val total_bits_of : t -> int list -> int

(** [peers t i] — the set of parties [i] has sent to or received from.
    Like {!locality} and {!max_locality}, it first folds the edge log
    (see the performance contract), so it mutates [t]. *)
val peers : t -> int -> Util.Iset.t

(** [locality t i] — [|peers t i|]. *)
val locality : t -> int -> int

(** [max_locality t] — the protocol's locality in the paper's sense. *)
val max_locality : t -> int

val messages_sent : t -> int

(** [active_parties t] — the ids of parties with at least one undrained
    delivered message, in increasing order: the frontier a round-driving
    loop should iterate instead of [0 .. n-1].  Cost is one O(n) scan of
    the inbox array, a word read per party.  A party whose step is a
    no-op on an empty inbox is unobservable either way, so restricting a
    round to this frontier is exact, not an approximation. *)
val active_parties : t -> int list

(** [snapshot t] captures current counters; [diff_snapshot] subtracts two
    snapshots so a protocol phase can be metered in isolation. *)
type snapshot = { snap_bits : int; snap_msgs : int; snap_rounds : int }

val snapshot : t -> snapshot
val diff_snapshot : before:snapshot -> after:snapshot -> snapshot
