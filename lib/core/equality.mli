(** Algorithm 1 — [Equality_λ], the succinct equality test.

    Two parties holding strings [m₁, m₂] detect inequality with probability
    [≥ 1 - n^{-λ}] while exchanging only [O(λ log n)] bits: P₁ samples
    random primes and sends the residues of [m₁]; P₂ compares against the
    residues of [m₂] and answers with one bit.

    {!pairwise} runs the test between every pair of a set of parties in two
    network rounds (all fingerprints, then all verdict bits) — this is the
    verification step used by All-to-All Broadcast (§2.1), by CommitteeElect
    (Algorithm 2 step 4), and by the MPC protocols (Algorithm 3 step 5,
    Algorithm 8 step 7).

    Domain-safety: {!pairwise} evaluates [value i] once per member and
    keeps residue tables that consecutive members with equal values
    share, and message encodings that pairs share, but all of it lives
    inside the call — no state survives it or
    is shared between concurrent runs, so parallel jobs that own their
    network and RNG ({!Netsim.Net} contract) may run this freely.  Nothing
    writes a table after it is computed: the [tamper_fp] adversary
    receives fresh arrays, never the table. *)

(** How a corrupted party misbehaves in equality tests.  [tamper_fp] lets a
    corrupted sender substitute the fingerprint it sends; [lie_verdict]
    lets a corrupted responder flip its answer bit. *)
type adv = {
  tamper_fp : (me:int -> dst:int -> Crypto.Fingerprint.fp -> Crypto.Fingerprint.fp) option;
  lie_verdict : (me:int -> dst:int -> bool -> bool) option;
}

val honest_adv : adv

(** [run net rng params ~p1 ~p2 ~m1 ~m2] — the two-party protocol of
    Algorithm 1 between parties [p1] (sender of the fingerprint) and [p2].
    Returns the flags output by [(p1, p2)]. Used directly in tests; the
    protocols use {!pairwise}.

    [?deadline] (here and on {!pairwise}) is the per-phase round timeout
    forwarded to [Net.step_until_quiet]: on the synchronous transports
    any value behaves identically to the default lockstep step, while on
    an event transport each protocol phase waits up to [deadline] ticks
    for in-flight traffic; a message still missing then surfaces as the
    protocol's own failed-check path ([false] verdicts here), never as a
    livelock. *)
val run :
  ?deadline:int ->
  Netsim.Net.t ->
  Util.Prng.t ->
  Params.t ->
  p1:int ->
  p2:int ->
  m1:bytes ->
  m2:bytes ->
  bool * bool

(** [pairwise net rng params ~members ~value ~corruption ~adv] —
    every unordered pair [{i, j}] of [members] runs [Equality_λ] on their
    values (the lower id sends the fingerprint).  Returns, for each member
    in the order given, [true] iff all tests it participated in accepted.

    {b Randomness.}  The CRS draws a pool of [2t] random primes from
    [rng] (after all values are fixed); each pair then selects its own
    [t]-subset through a keyed substream [Prng.derive rng ~key:(i·n + j)].
    Each selected prime is a uniformly random prime sampled after the
    values were fixed, so Lemma 5's per-pair union bound is unchanged,
    while Horner runs once per pool prime rather than once per pair — and
    not once per member either: a member whose value is byte-equal to the
    previous member's (one [Bytes.equal]) shares that member's residue
    table, so when all members hold the same value, as in an honest run,
    there is one table.  A residue is a function of the value and the
    prime alone, so sharing changes no message; it draws nothing from
    [rng] either, so the draws are those of the per-member computation.

    {b Message sharing.}  An honest fingerprint message for pair
    [(i, j)] depends only on [i]'s residue table and the pair's
    selection, and selections repeat (an honest n = 512 all-to-all sends
    130,816 messages taking 3,432 values).  While the pool holds at most
    62 primes, each distinct message is encoded once per run of members
    sharing a table, and every pair with that selection sends the same
    bytes object; above 62 each pair encodes its own.  A tampering
    sender's messages are encoded per pair and never shared.  In round
    2, a receiver whose sender sent honestly and shares its residue
    table accepts a message byte-equal to that pair's round-1 payload
    without decoding it: the honest encoding is canonical, so the
    decoding check would accept it too.  Any other message is decoded
    and checked as before.  Sharing changes no byte, draw or verdict.

    Cost: [O(|members|² · λ · log n)] bits in two rounds. *)
val pairwise :
  ?deadline:int ->
  Netsim.Net.t ->
  Util.Prng.t ->
  Params.t ->
  members:int list ->
  value:(int -> bytes) ->
  corruption:Netsim.Corruption.t ->
  adv:adv ->
  (int * bool) list

(** [view_value view_of] is a [~value] for {!pairwise}: member [i]'s
    value is the wire encoding of its view [view_of i], the string the
    protocols' equality steps compare — the list of [(party id, what it
    sent)] pairs, [None] marking silence, as a varint count, then per
    entry a varint id and an optional length-prefixed byte string.  The
    encodings share one scratch writer owned by the returned function, so
    each view costs one copy; {!pairwise} calls [value] once per member,
    one call at a time, which is what makes that sharing safe. *)
val view_value : (int -> (int * bytes option) list) -> int -> bytes

(** {1 Cost specs} (see {!Analysis.Costs})

    Exact message/round counts; bits carry the declared fingerprint-residue
    slack.  Expression arguments: [n]/[lambda] the security parameters,
    [len] the (max) compared value length in bytes. *)

(** Closed-form spec for {!run}: one fingerprint, one verdict byte, two
    rounds. *)
val cost_spec_run : n:Analysis.Costs.expr -> lambda:Analysis.Costs.expr -> len:Analysis.Costs.expr -> Analysis.Costs.spec

(** Phases of {!pairwise} over [k] members comparing values of (max)
    [maxlen] bytes — C(k,2) fingerprints then C(k,2) verdict bytes, one
    round each (both steps run even for [k < 2]).  [pre] prefixes phase
    labels for embedding into pipeline specs. *)
val cost_phases_pairwise :
  pre:string ->
  k:Analysis.Costs.expr ->
  maxlen:Analysis.Costs.expr ->
  n:Analysis.Costs.expr ->
  lambda:Analysis.Costs.expr ->
  Analysis.Costs.phase list
