(** The locality protocols: Theorem 2 (near-optimal locality) and
    Theorem 4 / Algorithm 8 (the communication–locality tradeoff).

    {b Theorem 2} ([run_theorem2]): all [n] parties execute the Theorem 9
    protocol where the simultaneous broadcast is implemented by
    {!Gossip} over the {!Sparse_network} routing graph, and the partial
    decryptions are gossiped as well.  Communication [Õ(n³/h)], locality
    [Õ(n/h)] (each party only ever talks to its graph neighbors).

    {b Theorem 4} ([run_theorem4], Algorithm 8): elect a committee locally
    ({!Local_committee}), then sparsify the committee–network interaction:
    each member [c] samples a cover set [S_c ⊂ [n]] of size [s = n/√h]
    and is "responsible" for it — it forwards the public key to [S_c],
    collects their encrypted inputs, exchanges collected inputs with the
    other members (step 6), equality-checks the merged views (step 7),
    engages in [F_Comp] (step 8) and forwards the output back to [S_c]
    (step 9).  By the covering claim (Claim 23) every party is covered by
    an honest member w.h.p.  Communication [Õ(n³/h^{3/2})], locality
    [Õ(n/√h)]. *)

type config = {
  params : Params.t;
  pke : (module Crypto.Pke.S);
  circuit : Circuit.t;
  input_width : int;
}

type theorem2_adv = {
  sparse : Sparse_network.adv;
  gossip_r1 : Gossip.adv;      (** misbehavior while gossiping round-1 messages *)
  gossip_pdec : Gossip.adv;    (** misbehavior while gossiping partial decryptions *)
  substitute_input : (me:int -> int -> int) option;
  tamper_pdec : (me:int -> bool) option;
      (** corrupted party gossips an invalid partial decryption *)
}

val honest_theorem2_adv : theorem2_adv

(** Per-party packed circuit output, or abort. *)
val run_theorem2 :
  ?obs:Analysis.Costs.Obs.t ->
  Netsim.Net.t ->
  Util.Prng.t ->
  config ->
  corruption:Netsim.Corruption.t ->
  inputs:int array ->
  adv:theorem2_adv ->
  bytes Outcome.t array

(** Cost phases of {!run_theorem2} (see {!Analysis.Costs}): the sparse
    routing network (closed form) and the two gossip phases — round-1
    messages under [pre].g1, partial decryptions under [pre].g2 —
    consuming the observables {!run_theorem2} records into [?obs].
    [out_bits] is the circuit's output bit count.  Fully exact. *)
val cost_phases_theorem2 :
  pre:string ->
  n:Analysis.Costs.expr ->
  h:Analysis.Costs.expr ->
  lambda:Analysis.Costs.expr ->
  alpha:Analysis.Costs.expr ->
  depth:Analysis.Costs.expr ->
  input_width:Analysis.Costs.expr ->
  out_bits:Analysis.Costs.expr ->
  Analysis.Costs.phase list

val cost_spec_theorem2 :
  n:Analysis.Costs.expr ->
  h:Analysis.Costs.expr ->
  lambda:Analysis.Costs.expr ->
  alpha:Analysis.Costs.expr ->
  depth:Analysis.Costs.expr ->
  input_width:Analysis.Costs.expr ->
  out_bits:Analysis.Costs.expr ->
  Analysis.Costs.spec

type theorem4_adv = {
  election : Local_committee.adv;
  encf : Enc_func.adv;
  pk_forward : (me:int -> dst:int -> bytes -> bytes) option;
  input_ct : (me:int -> dst:int -> bytes -> bytes) option;
  exchange_tamper : (me:int -> dst:int -> party:int -> bytes -> bytes) option;
      (** corrupted member forwards altered ciphertexts in step 6 *)
  eq : Equality.adv;
  out_forward : (me:int -> dst:int -> bytes -> bytes) option;
}

val honest_theorem4_adv : theorem4_adv

(** Phase costs matching Equation (1) of the paper. *)
type theorem4_costs = {
  election_bits : int;   (** LocalCommitteeElect, [O(|C|·d·n)] *)
  keygen_bits : int;     (** F_Gen inside the committee *)
  cover_bits : int;      (** pk to covers + inputs back, [O(|C|·s·b)] *)
  exchange_bits : int;   (** member-to-member input exchange, [Õ(|C|²·s)] *)
  equality_bits : int;   (** pairwise equality, [Õ(|C|²)] *)
  compute_bits : int;    (** F_Comp, [Õ(|C|²)] *)
  output_bits : int;     (** outputs to covers *)
}

val run_theorem4 :
  ?obs:Analysis.Costs.Obs.t ->
  Netsim.Net.t ->
  Util.Prng.t ->
  config ->
  corruption:Netsim.Corruption.t ->
  inputs:int array ->
  adv:theorem4_adv ->
  bytes Outcome.t array

(** [run_theorem4_metered] additionally returns the Equation (1) phase
    decomposition, and allows overriding the committee bias and cover size
    for the E10 balance experiment.  [?obs] records the structural
    observables {!cost_phases_theorem4} consumes (committee size, cover
    fan-out counts, input submissions, exchange framing, populated merged
    view entries, plus sub-protocol observables under [pre].lc / .gen /
    .eq / .comp). *)
val run_theorem4_metered :
  ?cover_size:int ->
  ?obs:Analysis.Costs.Obs.t ->
  Netsim.Net.t ->
  Util.Prng.t ->
  config ->
  corruption:Netsim.Corruption.t ->
  inputs:int array ->
  adv:theorem4_adv ->
  bytes Outcome.t array * theorem4_costs

(** Cost phases of {!run_theorem4} (see {!Analysis.Costs}): the nine
    Algorithm 8 steps composed from {!Local_committee.cost_phases},
    {!Enc_func.cost_phases} (keygen at depth 1, compute at [depth]), the
    step-7 {!Equality.cost_phases_pairwise} on merged views, and the
    exact cover/exchange fan-outs.  Keygen/compute are guarded on a
    nonempty committee, the equality on K ≥ 2; only fingerprint residues
    carry slack. *)
val cost_phases_theorem4 :
  pre:string ->
  pke:(module Crypto.Pke.S) ->
  depth:Analysis.Costs.expr ->
  input_width:Analysis.Costs.expr ->
  out_bits:Analysis.Costs.expr ->
  n:Analysis.Costs.expr ->
  h:Analysis.Costs.expr ->
  lambda:Analysis.Costs.expr ->
  alpha:Analysis.Costs.expr ->
  Analysis.Costs.phase list

val cost_spec_theorem4 :
  pke:(module Crypto.Pke.S) ->
  depth:Analysis.Costs.expr ->
  input_width:Analysis.Costs.expr ->
  out_bits:Analysis.Costs.expr ->
  n:Analysis.Costs.expr ->
  h:Analysis.Costs.expr ->
  lambda:Analysis.Costs.expr ->
  alpha:Analysis.Costs.expr ->
  Analysis.Costs.spec

val expected_output : config -> inputs:int array -> bytes
