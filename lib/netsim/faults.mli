(** Byzantine fault injection for corrupted parties' outgoing traffic.

    A {!t} is a keyed-PRNG fault schedule: given a parent {!Util.Prng.t}
    and a schedule id, it precomputes per-party crash rounds and exposes
    decision functions — drop, duplicate, byte-flip, truncate,
    replay-previous-payload, equivocate (different payload per recipient)
    and crash-at-stage-r (silence thereafter) — each a deterministic
    function of [(parent state, schedule, stage, party, recipient,
    payload)].  Any schedule therefore reproduces byte-identically from a
    single [(seed, schedule-id)] pair, which is what the soak runner's
    replay commands rely on.

    {b Stages.}  Protocols are sliced into small integer {e stages}
    (sender fan-out = 0, echo = 1, …; each adversary compiler in
    {!Attacks} documents its stage map).  Crash-at-stage-[r] means every
    decision at [stage >= r] reports the party silent, modeling a party
    that stops mid-protocol.

    {b Domain-safety.}  All decision functions except the replay slot of
    {!corrupt_payload} are pure: they derive a child stream with
    {!Util.Prng.derive} (the parent is never advanced) and may be called
    from any domain, in any order.  {!corrupt_payload} with [~replay:true]
    (the default) additionally reads/writes a per-party last-payload slot,
    so a [t] belongs to the one domain that runs the protocol, like the
    {!Net.t} it injects into. *)

type kind = Drop | Duplicate | Flip | Truncate | Replay | Equivocate | Crash

val all_kinds : kind list
val kind_to_string : kind -> string

(** Per-kind activation probabilities, each in [\[0, 1\]].  [crash] is the
    probability that a given corrupted party crashes at all; if it does,
    its crash stage is uniform in [\[1, crash_stage\]]. *)
type spec = {
  drop : float;
  duplicate : float;
  flip : float;
  truncate : float;
  replay : float;
  equivocate : float;
  crash : float;
  crash_stage : int;
}

(** All probabilities zero: injects nothing. *)
val honest : spec

(** [random_spec rng] — each kind enabled with probability 1/2; enabled
    kinds get a probability in [\[0.05, 0.5\]].  Advances [rng]. *)
val random_spec : Util.Prng.t -> spec

(** [disable k s] zeroes kind [k]'s probability (the shrinking move). *)
val disable : kind -> spec -> spec

(** Kinds with non-zero probability, in {!all_kinds} order. *)
val enabled : spec -> kind list

val spec_to_string : spec -> string

(** Combined probability that a value-mutating kind fires, used by hook
    compilers for tamper/lie decisions: [min 1 (flip + truncate + replay
    + equivocate)]. *)
val value_prob : spec -> float

type t

(** [make rng ~schedule ~n spec] — reads (never advances) [rng]:
    the same parent state and schedule id always yield the same [t]. *)
val make : Util.Prng.t -> schedule:int -> n:int -> spec -> t

val spec : t -> spec
val schedule : t -> int

(** Party count the schedule was built for. *)
val n : t -> int

(** {1 Pure decisions} *)

(** [stream t ~stage ~me ~dst ~salt] — the decision substream for one
    [(stage, party, recipient)] slot; [~dst:(-1)] for recipient-free
    decisions.  [salt] separates independent decisions at the same slot.
    Pure in [t]; each call returns a fresh generator at the same start
    position. *)
val stream : t -> stage:int -> me:int -> dst:int -> salt:int -> Util.Prng.t

(** [scheduler_stream t] — the substream that drives an adversarial
    {!Event_net} delivery scheduler for this schedule: pass it as the
    event transport's [~rng] so message timing is decided by the same
    [(seed, schedule-id)] pair as the payload faults, and replays with
    them.  Pure in [t], drawn from a slot no per-message decision uses. *)
val scheduler_stream : t -> Util.Prng.t

(** [crashed t ~me ~stage] — party [me]'s crash stage is [<= stage].
    Monotone in [stage]. *)
val crashed : t -> me:int -> stage:int -> bool

(** [drops t ~stage ~me ~dst] — suppress this message entirely: crashed,
    or the per-slot drop coin fired. *)
val drops : t -> stage:int -> me:int -> dst:int -> bool

(** [decide t ~stage ~me ~dst ~p] — a pure per-slot Bernoulli([p]) coin,
    for boolean hooks (lie, tamper, forge). *)
val decide : t -> stage:int -> me:int -> dst:int -> p:float -> bool

(** [fresh_bytes t ~stage ~me ~dst ~len] — a derived uniformly random
    payload (forgery material). *)
val fresh_bytes : t -> stage:int -> me:int -> dst:int -> len:int -> bytes

(** [corrupt_payload t ?replay ~stage ~me ~dst payload] applies at most
    one value mutation and never drops: equivocate (per-recipient random
    value of the same length), flip (same byte of the same mask for every
    recipient of this payload — a consistent lie), truncate (same prefix
    length for every recipient), or replay (the previous payload this
    party pushed through the engine).  With [~replay:false] the replay
    kind is skipped and no mutable state is touched. *)
val corrupt_payload : t -> ?replay:bool -> stage:int -> me:int -> dst:int -> bytes -> bytes

(** {1 Transport wrappers}

    The network-handle form of the engine: route a corrupted party's send
    through the schedule.  Applies, in order: crash/drop suppression,
    {!corrupt_payload}, then a duplicate coin that sends the mutated
    payload twice.  Must be called from the domain that owns the
    network. *)

val send : t -> Net.t -> stage:int -> src:int -> dst:int -> bytes -> unit
