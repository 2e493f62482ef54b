(** Single-source Broadcast with abort (Goldwasser–Lindell 2005, as
    described in §2.1 of the paper).

    Three steps: the sender sends [m] to everyone; every party echoes what
    it received to everyone; a party aborts if it ever sees two different
    values, and outputs the common value otherwise.

    Two verification variants:
    - {!Naive} — parties echo the full message: [O(n²·|m|)] bits.
    - {!Fingerprinted} — parties echo an [O(λ log n)]-bit fingerprint
      instead (the §2.1 optimization): [O(n·|m| + n²·λ·log n)] bits.

    Since the model has no PKI, a corrupted sender can equivocate and
    corrupted echoers can lie — the guarantee is only agreement-or-abort,
    which is exactly what the tests assert. *)

type variant = Naive | Fingerprinted

(** Adversary hooks (applied only to corrupted parties):
    [sender_value ~dst] substitutes the value the corrupted {e sender}
    sends to [dst] (equivocation); [echo_value ~me ~dst received]
    substitutes a corrupted party's echo; [drop ~src ~dst] suppresses a
    corrupted party's message entirely. *)
type adv = {
  sender_value : (dst:int -> bytes) option;
  echo_value : (me:int -> dst:int -> bytes -> bytes) option;
  drop : (src:int -> dst:int -> bool) option;
}

val honest_adv : adv

(** [run net rng params ~variant ~sender ~value ~corruption ~adv] — returns
    the per-party outcome: the broadcast value or an abort.  The sender's
    own outcome is its input value (it trivially "receives" it). *)
val run :
  ?deadline:int ->
  Netsim.Net.t ->
  Util.Prng.t ->
  Params.t ->
  variant:variant ->
  sender:int ->
  value:bytes ->
  corruption:Netsim.Corruption.t ->
  adv:adv ->
  bytes Outcome.t array

(** Closed-form cost spec of an honest {!run} at [n] parties broadcasting
    a [len]-byte value (see {!Analysis.Costs}): fan-out round plus echo
    round, 2 rounds in both variants; the {!Fingerprinted} echo carries
    the declared fingerprint-residue slack. *)
val cost_spec :
  variant:variant ->
  n:Analysis.Costs.expr ->
  lambda:Analysis.Costs.expr ->
  len:Analysis.Costs.expr ->
  Analysis.Costs.spec
