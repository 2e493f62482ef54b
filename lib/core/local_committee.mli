(** Algorithm 7 — [LocalCommitteeElect]: committee election over the
    sparse routing network, for the Theorem 4 tradeoff protocol.

    Steps: establish the routing graph (Algorithm 5); flip coins with the
    {e larger} bias [p = min(1, α·log n / √h)] (the committee must be big
    enough for the covering claim of Algorithm 8); announce self-election
    via {!Gossip} instead of direct messages (locality!); abort on [≥ 2pn]
    claims; finally the claimed members equality-check their views over
    direct channels (committee-internal channels are within the locality
    budget, Claim 24).

    Guarantees (Claim 22): w.h.p. at least [α·√h·log n / 2] honest members
    and consistent honest views; [|C| ≤ 2α·n·log n/√h]; communication
    [Õ(n³/h^{3/2})]. *)

type adv = {
  sparse : Sparse_network.adv;
  gossip : Gossip.adv;
  false_claim : (me:int -> bool) option;
  eq : Equality.adv;
}

val honest_adv : adv

type result = {
  views : Committee.view Outcome.t array;
  graph : Util.Iset.t array;
      (** the routing graph (empty neighbor sets for aborted parties) *)
}

val run :
  ?obs:Analysis.Costs.Obs.t ->
  Netsim.Net.t ->
  Util.Prng.t ->
  Params.t ->
  corruption:Netsim.Corruption.t ->
  adv:adv ->
  result

(** Cost phases of {!run} (see {!Analysis.Costs}): sparse network (closed
    form) + claim gossip (observables under [pre].gossip) + view check
    (observables under [pre].vc).  Rounds: 1 + gossip rounds + 2. *)
val cost_phases :
  pre:string ->
  n:Analysis.Costs.expr ->
  h:Analysis.Costs.expr ->
  lambda:Analysis.Costs.expr ->
  alpha:Analysis.Costs.expr ->
  Analysis.Costs.phase list

val cost_spec :
  n:Analysis.Costs.expr ->
  h:Analysis.Costs.expr ->
  lambda:Analysis.Costs.expr ->
  alpha:Analysis.Costs.expr ->
  Analysis.Costs.spec
