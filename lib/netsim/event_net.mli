(** Discrete-event asynchronous transport: per-link latency, bounded
    reordering, and an adversarial delivery scheduler — all deterministic
    from one {!Util.Prng.t}.

    Where the synchronous transports deliver {e everything} at the next
    {!Net.step}, this one stamps each submitted message with a delivery
    time on a virtual clock that advances by one tick per [step], so
    traffic straddles rounds, arrives out of order, and can be held back
    by an adversary.  This is the eventual-delivery regime of the
    asynchronous-MPC literature, scaled down to the simulator: the
    paper's round/bit bounds assume lockstep, and the bench's [--async]
    rows measure how far rounds-to-completion drift once delivery is
    merely eventual.

    {b Determinism / replayability.}  Every random choice — latency
    draws, hold decisions, adversarial permutations — comes from
    {!Util.Prng.derive} substreams of the constructor's [rng], keyed by
    the message's submission sequence number and the virtual tick.  The
    schedule is therefore a pure function of [(rng state, config,
    submission sequence)]: the same seed replays the identical
    interleaving, which is what lets the soak runner shrink and replay
    async failures exactly like synchronous ones.

    {b Eventual-delivery fairness.}  A message submitted at tick [s]
    with drawn latency [l] becomes deliverable at [s + l] and {e must}
    be delivered by [s + l + horizon]: the adversary may hold a
    deliverable message for at most [horizon] extra ticks, and every
    latency distribution is capped, so delivery happens within
    {!span}[ cfg] ticks of submission.  {!Net}'s [max_rounds] watchdog
    — a bound on the same virtual clock — therefore remains a livelock
    guard under any adversarial schedule. *)

(** Per-link latency distribution, in virtual ticks (all >= 1; a latency
    of exactly 1 is the synchronous behavior). *)
type latency =
  | Fixed of int  (** every message takes exactly [k] ticks ([k >= 1]) *)
  | Uniform of int * int
      (** uniform in [\[lo, hi\]] inclusive ([1 <= lo <= hi]) *)
  | Heavy_tail of { cap : int }
      (** truncated Pareto-like tail: mostly 1–2 ticks, occasionally up
          to [cap] ([cap >= 1]) — stragglers without unbounded delay *)

(** Who picks the order in which deliverable messages fire. *)
type scheduler =
  | Fifo
      (** canonical order: due tick, then sender id, then submission
          order — with [Fixed 1] latency and [horizon = 0] this is
          exactly the synchronous delivery order *)
  | Adversarial of { hold : float }
      (** the adversary permutes each tick's deliverable set and holds
          any deliverable message with probability [hold] per tick
          ([0 <= hold < 1]), subject to the [horizon] fairness bound *)

type config = { latency : latency; horizon : int; scheduler : scheduler }

(** [Fixed 1] latency, [horizon = 0], [Fifo]: the event machinery
    degenerates to synchronous lockstep — the differential suite pins
    transcript equality with {!Transport.sync} on this config. *)
val zero_latency_fifo : config

(** Largest latency the distribution can draw. *)
val max_latency : latency -> int

(** [span cfg] — the fairness bound: every message is delivered at most
    [span cfg] ticks after submission ([max_latency + horizon]).  A
    protocol phase that steps [span cfg] times (the [?deadline] knob on
    the {!Net.step_until_quiet}-based entry points) observes every
    message sent before the phase began. *)
val span : config -> int

(** Human-readable config, for soak logs and replay output. *)
val config_to_string : config -> string

(** [random_config rng] — draw a soak-sweep configuration (latency kind,
    horizon in [\[0, 2\]], scheduler) from [rng]; advances [rng]. *)
val random_config : Util.Prng.t -> config

(** [transport ~rng cfg] — a fresh event transport.  [rng] is copied at
    construction; the caller's generator is not advanced.  Raises
    [Invalid_argument] on out-of-range config fields. *)
val transport : rng:Util.Prng.t -> config -> Transport.t
