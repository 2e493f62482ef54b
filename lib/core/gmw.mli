(** A classical baseline: GMW-style n-party computation over point-to-point
    channels with additive secret sharing and Beaver multiplication triples.

    This is the "generic MPC" yardstick the paper's committee-based
    protocols are designed to beat as [n] grows: every AND/OR gate costs one
    Beaver opening, and every opening is an all-to-all exchange of shares —
    [Θ(n²)] bits {e per gate}, versus Algorithm 3's [Õ(n²/h)] {e total}.
    Experiment E13 measures the crossover.

    Model notes (documented in DESIGN.md §3):
    - Beaver triples come from a trusted dealer (the CRS in spirit; a real
      dishonest-majority preprocessing would itself need the paper's
      machinery, which is the point of the comparison).  Triple bits are
      {e not} counted as protocol communication; the online phase is.
    - The protocol is semi-honest: it computes correctly when parties
      follow it.  It has {b no} abort mechanism — running it against our
      active adversaries shows exactly the failure the paper's protocols
      exist to prevent (see the tests), since without verification a single
      lying party silently corrupts the output.

    Shares: party [i] holds bit [xᵢ] with [x = ⊕ᵢ xᵢ].  XOR/NOT are local;
    AND uses one triple; outputs are opened by exchanging shares. *)

type adv = {
  flip_share : (me:int -> gate_index:int -> bool) option;
      (** a corrupted party flips its share during an opening — undetectable
          in plain GMW, which is the baseline's weakness *)
}

val honest_adv : adv

(** [run net rng ~circuit ~input_width ~inputs ~corruption ~adv] — every
    party ends with the (claimed) output bits; with [honest_adv] these
    equal [Circuit.eval].  Returns the per-party packed outputs.

    Every phase sends one packed payload per ordered pair of parties (bit
    [k] at byte [k/8], position [k mod 8], as in {!Bitpack}), and a
    receiver reads each peer's payload of the phase with
    {!Netsim.Net.recv_one}:
    - a missing payload, or one delivered more than once, reads as all
      zeros;
    - a short payload reads as zero-padded;
    - a long payload's extra bytes, and any bits past the phase's bit
      count, are never read.

    [adv.flip_share] is called once per (multiplicative gate, corrupted
    party): layer by layer, within a layer in gate-index order, and
    within a gate in increasing party order, so a stateful predicate
    sees a fixed sequence. *)
val run :
  Netsim.Net.t ->
  Util.Prng.t ->
  circuit:Circuit.t ->
  input_width:int ->
  inputs:int array ->
  corruption:Netsim.Corruption.t ->
  adv:adv ->
  bytes array

(** [triples_used ~circuit] — the number of AND/OR gates (triples): each
    consumes one Beaver triple the dealer must supply. *)
val triples_used : circuit:Circuit.t -> int

(** Closed-form cost spec of {!run} (see {!Analysis.Costs}): input
    sharing, one batched Beaver opening per layer containing
    multiplicative gates, and the output opening — each an all-pairs
    exchange of one packed message, so [n(n−1)] messages per phase and
    rounds = 2 + the number of multiplicative layers.  Exact (no
    randomness in any payload size). *)
val cost_spec :
  circuit:Circuit.t -> input_width:int -> n:Analysis.Costs.expr -> Analysis.Costs.spec
