(** Algorithm 3 — the communication-optimal MPC-with-abort protocol
    (Theorem 1): [Õ(n²/h)] bits against a static malicious adversary
    corrupting up to [n - h] parties, over point-to-point channels with no
    broadcast and no PKI.

    Protocol flow (§4.2):
    + {!Committee.run} elects a committee [C] with at least one honest
      member w.h.p.;
    + the committee runs [F_Gen] ({!Enc_func}) to create a public key
      [pk] whose secret key exists only inside the (simulated) threshold
      functionality;
    + every committee member forwards [pk] to the whole network — parties
      abort on conflicting copies;
    + every party encrypts its input under [pk] ({!Crypto.Pke}) and sends
      the ciphertext to the committee members it knows of;
    + the committee equality-tests their concatenated ciphertext vectors
      (Algorithm 3 step 5);
    + the committee runs [F_Comp] to evaluate the circuit on the decrypted
      inputs;
    + every committee member forwards the output to the whole network —
      parties abort on conflicting copies.

    The guarantee is selective abort: every honest party either outputs
    [f(x₁, …, xₙ)] (with corrupted inputs possibly substituted) or ⊥. *)

type config = {
  params : Params.t;
  pke : (module Crypto.Pke.S);
  circuit : Circuit.t;
  input_width : int;  (** bits of input per party; [n·input_width] must
                          equal the circuit's input count *)
}

type adv = {
  committee : Committee.adv;
  encf : Enc_func.adv;
  pk_forward : (me:int -> dst:int -> bytes -> bytes) option;
      (** corrupted member forwards a wrong public key *)
  input_ct : (me:int -> dst:int -> bytes -> bytes) option;
      (** corrupted party equivocates its ciphertext across members *)
  eq : Equality.adv;
  out_forward : (me:int -> dst:int -> bytes -> bytes) option;
      (** corrupted member forwards a wrong output *)
}

val honest_adv : adv

(** Per-party result: the packed circuit output bits (see {!Bitpack}).

    [?obs] records the structural observables the cost spec consumes
    (committee size, fan-out sender counts, ciphertext submissions,
    populated view entries — see {!cost_phases}). *)
val run :
  ?deadline:int ->
  ?obs:Analysis.Costs.Obs.t ->
  Netsim.Net.t ->
  Util.Prng.t ->
  config ->
  corruption:Netsim.Corruption.t ->
  inputs:int array ->
  adv:adv ->
  bytes Outcome.t array

(** [expected_output config ~inputs] — the honest functionality value, for
    checking correctness in tests. *)
val expected_output : config -> inputs:int array -> bytes

(** Phase-level communication metering, for the E1/E10 experiments. *)
type phase_costs = {
  election_bits : int;
  keygen_bits : int;
  pk_forward_bits : int;
  input_bits : int;
  equality_bits : int;
  compute_bits : int;
  output_bits : int;
}

(** [run_metered] — like {!run} but also returns per-phase bit counts. *)
val run_metered :
  ?deadline:int ->
  ?obs:Analysis.Costs.Obs.t ->
  Netsim.Net.t ->
  Util.Prng.t ->
  config ->
  corruption:Netsim.Corruption.t ->
  inputs:int array ->
  adv:adv ->
  bytes Outcome.t array * phase_costs

(** Cost phases of {!run} (see {!Analysis.Costs}): the seven Algorithm 3
    steps composed from {!Committee.cost_phases}, {!Enc_func.cost_phases}
    (keygen at depth 1, compute at [depth]), the step-5
    {!Equality.cost_phases_pairwise} on ciphertext views, and the exact
    step-3/4/7 fan-outs.  Consumes the observables {!run} records under
    [pre] ([members], [memb_idsum], [pk_senders], [input_sends],
    [ctv_some], [out_senders]) and under [pre].comm / [pre].gen /
    [pre].eq / [pre].comp.  [out_bits] is the circuit's output bit count;
    [depth] and [input_width] are the circuit depth and per-party input
    width.  Keygen/compute are guarded on a nonempty committee and the
    equality on K ≥ 2; only fingerprint residues carry slack. *)
val cost_phases :
  pre:string ->
  pke:(module Crypto.Pke.S) ->
  depth:Analysis.Costs.expr ->
  input_width:Analysis.Costs.expr ->
  out_bits:Analysis.Costs.expr ->
  n:Analysis.Costs.expr ->
  lambda:Analysis.Costs.expr ->
  Analysis.Costs.phase list

val cost_spec :
  pke:(module Crypto.Pke.S) ->
  depth:Analysis.Costs.expr ->
  input_width:Analysis.Costs.expr ->
  out_bits:Analysis.Costs.expr ->
  n:Analysis.Costs.expr ->
  lambda:Analysis.Costs.expr ->
  Analysis.Costs.spec
