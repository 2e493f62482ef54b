(** All-to-All (simultaneous) Broadcast with abort — the functionality
    [F_SB] of §3.3, implemented over point-to-point channels.

    Two variants, matching §2.1 of the paper:

    - {!Naive} — the Goldwasser–Lindell construction: [|S|] parallel runs
      of single-source broadcast with full echoes, [O(|S|³·ℓ)] bits.
    - {!Fingerprinted} — the paper's optimization: everyone sends their
      input to everyone ([O(|S|²·ℓ)]), then the [|S|] concatenated views
      are pairwise equality-tested with [O(λ log)]-bit fingerprints
      ([O(|S|²·λ·log n)]).  This is the [Õ(n²)] protocol of Remark 8, and
      the committee-internal broadcast used by the encrypted functionality.

    [participants] restricts the protocol to a subset of the network (the
    paper runs [F_SB] both on all [n] parties and inside committees).

    Domain-safety: the [input i] memo and the per-receiver echo tables
    are per-call; nothing is cached at module level, so concurrent runs
    on distinct networks (see {!Netsim.Net}) are safe. *)

type variant = Naive | Fingerprinted

type adv = {
  input_value : (me:int -> dst:int -> bytes) option;
      (** equivocate: what a corrupted party claims its input is, per peer *)
  drop : (src:int -> dst:int -> bool) option;
  eq : Equality.adv;  (** misbehavior inside the verification step *)
}

val honest_adv : adv

(** [run net rng params ~variant ~participants ~input ~corruption ~adv] —
    each participant either outputs the full vector of participant inputs
    (as [(id, value)] sorted by id) or aborts.  Result is ordered like
    [participants].

    [?pool] is accepted and ignored: every round runs on the calling
    domain.  It remains only so the session benchmark's callers still
    build; new code should not pass it. *)
val run :
  ?pool:Util.Pool.t ->
  ?deadline:int ->
  Netsim.Net.t ->
  Util.Prng.t ->
  Params.t ->
  variant:variant ->
  participants:int list ->
  input:(int -> bytes) ->
  corruption:Netsim.Corruption.t ->
  adv:adv ->
  (int * (int * bytes) list Outcome.t) list

(** {1 Cost specs} (see {!Analysis.Costs})

    Honest-run accounting over [k] members with uniform [len]-byte
    inputs; [idsum] = Σ varint_size(id) over the member ids.  Naive is
    exact; Fingerprinted carries the fingerprint-residue slack from its
    embedded {!Equality.cost_phases_pairwise}. *)

val cost_phases :
  variant:variant ->
  pre:string ->
  k:Analysis.Costs.expr ->
  idsum:Analysis.Costs.expr ->
  len:Analysis.Costs.expr ->
  n:Analysis.Costs.expr ->
  lambda:Analysis.Costs.expr ->
  Analysis.Costs.phase list

val cost_spec :
  variant:variant ->
  k:Analysis.Costs.expr ->
  idsum:Analysis.Costs.expr ->
  len:Analysis.Costs.expr ->
  n:Analysis.Costs.expr ->
  lambda:Analysis.Costs.expr ->
  Analysis.Costs.spec
