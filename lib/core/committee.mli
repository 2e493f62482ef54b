(** Algorithm 2 — [CommitteeElect], the self-election protocol.

    Each party flips a coin with bias [p = min(1, α·ln n / h)]; winners
    notify the whole network; everyone aborts if too many claims arrive
    ([≥ 2pn], step 3); finally the claimed committee members pairwise
    equality-test their views of the committee (step 4).

    Guarantees (Claims 12 and 14): [Õ(n²/h)] bits of communication; with
    probability [1 - n^{-Ω(min(α,λ))}] either someone aborts or the
    committee contains at least one honest party and all honest committee
    members share the same view [C]. *)

type adv = {
  false_claim : (me:int -> bool) option;
      (** a corrupted party claims election regardless of its coin *)
  claim_subset : (me:int -> dst:int -> bool) option;
      (** equivocate: notify only some parties of the claim *)
  eq : Equality.adv;
}

val honest_adv : adv

(** The result at one party: its view of the committee (sorted ids,
    including itself if elected), or an abort. *)
type view = { committee : int list; elected : bool }

(** [?obs] records cost-spec observables: [claims] (number of claimant
    parties) plus View_check's observables under prefix [vc]. *)
val run :
  ?deadline:int ->
  ?obs:Analysis.Costs.Obs.t ->
  Netsim.Net.t ->
  Util.Prng.t ->
  Params.t ->
  corruption:Netsim.Corruption.t ->
  adv:adv ->
  view Outcome.t array

(** Cost phases of {!run} (see {!Analysis.Costs}): the claim-notification
    round plus {!View_check.cost_phases} under prefix [vc] — always
    exactly 3 rounds. *)
val cost_phases :
  pre:string ->
  n:Analysis.Costs.expr ->
  lambda:Analysis.Costs.expr ->
  Analysis.Costs.phase list

val cost_spec : n:Analysis.Costs.expr -> lambda:Analysis.Costs.expr -> Analysis.Costs.spec

(** [consistent_committee outs corruption] — the common honest-member view
    if all honest elected members agree, used by the MPC protocols to
    continue with the elected committee.  [None] when no honest party was
    elected or views diverge. *)
val consistent_committee : view Outcome.t array -> Netsim.Corruption.t -> int list option
