(** The delivery seam under {!Net}: a transport owns every message that
    has been sent but not yet delivered, and decides — when the round
    clock ticks — which of them become readable.

    {!Net.send} meters a message (bits, message count, peers) and then
    hands it to the transport via [submit]; {!Net.step} calls [advance],
    and the transport calls [deliver] back once per message it releases,
    in the order it wants them to arrive.  Mailboxes, accounting, and the
    round clock stay in {!Net}; the transport is {e only} the in-flight
    buffer plus the delivery schedule.  That split is what lets the
    synchronous transport stay byte-identical while an event-queue
    transport ({!Event_net}) reorders and delays traffic under the same
    protocol code — and it is the seam a future socket-backed transport
    plugs into.

    Contract required of any implementation:
    - {b Eventual delivery.}  Every submitted message is delivered after
      finitely many [advance] calls ([Net]'s livelock watchdog assumes
      this; {!Event_net} enforces it with a per-message forced-delivery
      bound).
    - {b Determinism.}  The delivery schedule is a pure function of the
      submission sequence and the transport's construction arguments
      (including any PRNG state captured at construction) — never of
      wall-clock time or domain scheduling.
    - {b Single owner.}  Same as [Net.t]: no internal locking, one
      owning domain.

    The synchronous transport below reproduces the historical lockstep
    semantics {e exactly}: one [advance] delivers everything in flight,
    senders in ascending id order, each sender's messages in send order. *)

type t = {
  name : string;  (** for reports and error messages, e.g. ["sync"] *)
  submit : src:int -> dst:int -> bytes -> unit;
      (** Take ownership of one metered message. *)
  advance : deliver:(src:int -> dst:int -> bytes -> unit) -> unit;
      (** One clock tick: release zero or more in-flight messages through
          [deliver].  Called by {!Net.step} only when [in_flight () > 0],
          so an implementation may treat ticks as relative to activity. *)
  in_flight : unit -> int;  (** Messages submitted but not yet delivered. *)
}

(** Lockstep delivery, the default transport of {!Net.create}.  In-flight
    messages sit in flat arrays in submission order: [submit] is O(1)
    and allocation-free (amortized), and [advance] delivers them stably
    by sender — in one pass when submissions already ascended by sender,
    as every protocol's per-party send loop does, and
    after an O(m log m) sort of the m in-flight messages otherwise.
    Memory is O(in-flight messages), independent of n. *)
val sync : unit -> t

(** [sync_dense ~n] and [sync_sparse ()] are {!sync}; [n] is ignored.
    They remain only for callers written against the two transports this
    one replaced. *)
val sync_dense : n:int -> t

val sync_sparse : unit -> t
