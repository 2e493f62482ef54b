(** The committee-view verification step shared by Algorithm 2 (step 4)
    and Algorithm 7 (step 5): every pair of claimed committee members with
    mutual knowledge of each other runs [Equality_λ] on their
    (self-inclusive) views of the committee, over direct channels.

    Mutates [aborted]: an honest party whose test fails is marked.

    Domain-safety: the per-claimant view encodings and the adjacency
    bitmap are allocated per call; the only state crossing the call
    boundary is the caller-owned [aborted] array.  Safe in parallel jobs
    that each own their network, RNG and arrays. *)

(** [?obs] records the structural observables the cost spec needs
    ([maxlen], [fp_pairs], [pairs]); see {!cost_phases}. *)
val run :
  ?deadline:int ->
  ?obs:Analysis.Costs.Obs.t ->
  Netsim.Net.t ->
  Util.Prng.t ->
  Params.t ->
  claims:bool array ->
  views:int list array ->
  corruption:Netsim.Corruption.t ->
  eq:Equality.adv ->
  aborted:bool array ->
  unit

(** Cost phases of {!run} (always exactly 2 rounds): C(claimants, 2)
    mutual-pair fingerprints, then one verdict byte per mutual pair.
    Observable variables are read under label/obs prefix [pre]. *)
val cost_phases :
  pre:string ->
  n:Analysis.Costs.expr ->
  lambda:Analysis.Costs.expr ->
  Analysis.Costs.phase list

(** [self_view ~claims ~views i] — party [i]'s view of the committee
    including itself when elected (the string compared by the tests and
    carried into the MPC protocols). *)
val self_view : claims:bool array -> views:int list array -> int -> int list
