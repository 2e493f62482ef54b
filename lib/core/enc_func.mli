(** The encrypted functionality [F\[PKE, f\]] of §3.3 — the Theorem 9
    machinery the committee uses to compute on encrypted inputs.

    Theorem 9 (Mukherjee–Wichs MKFHE + UC NIZK from LWE) says any
    functionality can be securely computed with:

    + one {b simultaneous broadcast} among the participants, each message
      of size [poly(λ, D, ℓ_in)] — here executed as a real run of the
      fingerprinted {!All_to_all} protocol restricted to the participants,
      carrying payloads sized by {!Cost_model.round1_bytes};
    + for each {e secret} output bit delivered to recipient [i], a
      {b partial decryption} plus NIZK proof of size [poly(λ, D)] from
      every other participant — real point-to-point messages sized by
      {!Cost_model.partial_dec_bytes}.

    {b Public vs private outputs.}  A [public_output] is a value every
    participant can derive locally from the round-1 broadcast — e.g. the
    joint public key of [F_Gen], which in TFHE/MKFHE is the combination of
    the broadcast key shares and needs {e no} decryption.  It costs nothing
    beyond the broadcast.  [private_outputs] model actual decrypted values
    and pay the per-bit partial-decryption traffic.

    The {e logical} result is produced by a trusted evaluator closure (the
    ideal functionality), while the above bits flow on the simulated
    network; DESIGN.md §3 documents why this preserves everything the
    paper's claims depend on.  NIZK soundness is modeled by a validity
    tag: honest messages carry tag 0 and any adversarial deviation is
    visible as a non-zero tag or malformed length (a sound proof system
    makes deviation detectable — that detectability is all we keep).

    Domain-safety: the input memo and the broadcast-consistency table are
    per-call; a run touches only the network/RNG/PKE instance it is
    handed, so jobs that own those (see {!Netsim.Net}) can run this
    concurrently. *)

type result = {
  public_output : bytes;
      (** locally derivable from round-1; delivered to every participant *)
  private_outputs : (int * bytes) list;
      (** per-recipient secret outputs; pay partial-decryption traffic *)
}

type adv = {
  sb : All_to_all.adv;  (** misbehavior during the round-1 broadcast *)
  substitute_input : (me:int -> bytes -> bytes) option;
      (** ideal-world input substitution by corrupted participants *)
  tamper_partial : (me:int -> dst:int -> bool) option;
      (** send an invalid partial decryption (detected by the NIZK) *)
  drop_partial : (me:int -> dst:int -> bool) option;
}

val honest_adv : adv

(** [run net rng params ~participants ~private_input ~depth ~eval
    ~corruption ~adv] executes one Theorem 9 protocol instance.

    [eval inputs] receives the (possibly adversarially substituted)
    private inputs as [(party, bytes)] pairs and returns the outputs.
    Recipients of private outputs must be participants.

    On success each participant receives
    [(public_output, its private output or empty)]. *)
val run :
  ?deadline:int ->
  Netsim.Net.t ->
  Util.Prng.t ->
  Params.t ->
  participants:int list ->
  private_input:(int -> bytes) ->
  depth:int ->
  eval:((int * bytes) list -> result) ->
  corruption:Netsim.Corruption.t ->
  adv:adv ->
  (int * (bytes * bytes) Outcome.t) list

(** Cost phases of {!run} (see {!Analysis.Costs}) for [k] participants
    (id varint sizes summing to [idsum]) with uniform [inbits]-bit
    private inputs, [recipients] parties receiving a nonempty
    [outbytes]-byte private output, and circuit depth [depth]: a
    fingerprinted {!All_to_all} over {!Cost_model.round1_bytes}-sized
    payloads (3 rounds, sub-phases under [pre].sb), then one
    partial-decryption round of [recipients·(k−1)] messages sized
    [1 + partial_dec_bytes·blocks(8·outbytes)].  Total 4 rounds; only
    fingerprint residues carry slack. *)
val cost_phases :
  pre:string ->
  k:Analysis.Costs.expr ->
  idsum:Analysis.Costs.expr ->
  depth:Analysis.Costs.expr ->
  inbits:Analysis.Costs.expr ->
  outbytes:Analysis.Costs.expr ->
  recipients:Analysis.Costs.expr ->
  n:Analysis.Costs.expr ->
  lambda:Analysis.Costs.expr ->
  Analysis.Costs.phase list

val cost_spec :
  k:Analysis.Costs.expr ->
  idsum:Analysis.Costs.expr ->
  depth:Analysis.Costs.expr ->
  inbits:Analysis.Costs.expr ->
  outbytes:Analysis.Costs.expr ->
  recipients:Analysis.Costs.expr ->
  n:Analysis.Costs.expr ->
  lambda:Analysis.Costs.expr ->
  Analysis.Costs.spec
