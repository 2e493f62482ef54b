(** Algorithm 5 — [SparseNetwork], establishing a sparse routing graph.

    Each party samples [d = α·(n/h)·log n] random outgoing hops and
    notifies them; the graph is bidirectional (hop relations are
    symmetric).  A party that receives more than [2d] incoming connections
    aborts — with honest parties this happens with probability
    [n^{-Ω(α)}], so crossing the threshold indicates a targeted flooding
    attack (Algorithm 5 step 3).

    Guarantees (Claim 20): max degree [O(α·n·log n/h)], and the subgraph
    induced by the honest parties is connected w.h.p. *)

type adv = {
  extra_targets : (me:int -> int list) option;
      (** corrupted parties connect to extra victims (the "DDoS" attack) *)
  drop_notify : (me:int -> dst:int -> bool) option;
      (** corrupted parties fail to notify some sampled hops *)
}

val honest_adv : adv

(** Per-party neighbor set, or abort.  With [~obs], records [union_degmax] — the sampled hop graph's max
    union degree |out(i) ∪ in(i)|, computed structurally from the hop
    arrays — which the cost spec's [max_locality] formula consumes. *)
val run :
  ?obs:Analysis.Costs.Obs.t ->
  Netsim.Net.t ->
  Util.Prng.t ->
  Params.t ->
  corruption:Netsim.Corruption.t ->
  adv:adv ->
  Util.Iset.t Outcome.t array

(** Closed-form cost spec of {!run} under [honest_adv] (see
    {!Analysis.Costs}): n·min(d, n−1) one-byte notifications in one
    round, exact even with corrupted parties present (the honest
    adversary's hooks are inert). *)
val cost_spec :
  n:Analysis.Costs.expr ->
  h:Analysis.Costs.expr ->
  lambda:Analysis.Costs.expr ->
  alpha:Analysis.Costs.expr ->
  Analysis.Costs.spec

(** [run_iter ~f ...] is {!run} delivered as a stream: [f i outcome] is
    called once per party in ascending [i] with exactly the outcomes
    {!run} would store.  No more than one neighbor set is live at a
    time, so a giant-n caller (E7 at n = 10⁵–10⁶) can fold
    degree/abort statistics without ever materializing the n-element
    outcome array — which is gigabytes of [Iset] nodes at n = 10⁶. *)
val run_iter :
  ?obs:Analysis.Costs.Obs.t ->
  Netsim.Net.t ->
  Util.Prng.t ->
  Params.t ->
  corruption:Netsim.Corruption.t ->
  adv:adv ->
  f:(int -> Util.Iset.t Outcome.t -> unit) ->
  unit

(** [honest_subgraph_connected outs corruption] — true when the honest
    parties that did not abort form a connected subgraph under the mutual
    neighbor relation (the Claim 20 property measured by experiment E7). *)
val honest_subgraph_connected : Util.Iset.t Outcome.t array -> Netsim.Corruption.t -> bool

(** [max_degree outs] — over non-aborted parties. *)
val max_degree : Util.Iset.t Outcome.t array -> int
