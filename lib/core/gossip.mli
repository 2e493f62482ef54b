(** Algorithm 6 — [Gossip], responsible gossip over the sparse routing
    graph: the locality-friendly implementation of simultaneous broadcast.

    Sources inject [(origin, value)] rumors; every party forwards each
    origin's rumor to its neighbors {b at most once}.  If a party ever
    hears two {e different} values for the same origin (an equivocation —
    possible because there is no PKI and anyone can forge "S said x"), it
    floods a warning and aborts; warnings are themselves forwarded once
    and poison every honest party they reach (the "responsible gossip"
    rule of §2.3).

    Guarantees (Claim 21): with the honest subgraph connected, either some
    honest party aborts or all honest parties agree on every origin's
    value; total communication [O(k · d·n · ℓ)] for [k] sources over a
    degree-[d] graph. *)

type adv = {
  equivocate : (me:int -> origin:int -> dst:int -> bytes -> bytes option) option;
      (** substitute the value a corrupted party forwards for [origin]
          toward [dst]; [None] = forward faithfully *)
  forge : (me:int -> (int * bytes) list) option;
      (** rumors a corrupted party invents out of thin air, as
          [(origin, value)] *)
  drop : (me:int -> origin:int -> dst:int -> bool) option;
      (** suppress forwarding of [origin]'s rumor to [dst] *)
  spread_warning : bool;
      (** whether corrupted parties forward warnings (honest ones always do) *)
}

val honest_adv : adv

(** Per-party result: the origin→value map it gossiped together (sorted
    association list), or an abort. *)
val run :
  ?deadline:int ->
  ?obs:Analysis.Costs.Obs.t ->
  Netsim.Net.t ->
  Util.Prng.t ->
  Params.t ->
  graph:Util.Iset.t array ->
  sources:(int * bytes) list ->
  corruption:Netsim.Corruption.t ->
  adv:adv ->
  (int * bytes) list Outcome.t array

(** Cost phases of {!run} for honest traffic with uniform [len]-byte rumor
    values, over the structural observables [run] records into [?obs]
    under prefix [pre] ([batches], [rounds], [rumors], [hdr_bytes],
    [bitmap_bytes], [origin_bytes]); see {!Analysis.Costs}.  The byte
    count is reconstructed arithmetically from [encode_batch]'s framing,
    so it is exact — no slack. *)
val cost_phases : pre:string -> len:Analysis.Costs.expr -> Analysis.Costs.phase list

val cost_spec : len:Analysis.Costs.expr -> Analysis.Costs.spec
