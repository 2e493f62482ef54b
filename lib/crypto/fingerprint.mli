(** Succinct string fingerprints — the substrate of the paper's
    [Equality_λ] test (Algorithm 1 / Lemma 5).

    The paper samples one random prime [p ∈ [n^λ]] and exchanges [m mod p].
    To avoid arbitrary-precision arithmetic we instead sample [t]
    independent 29-bit primes and send the [t] residues: a single random
    29-bit prime is wrong on a fixed pair [m₁ ≠ m₂] with probability at most
    [log₂(max|m|·256) / π(2²⁹) ≲ |m|·2⁻²⁴] ... concretely, the number of
    prime divisors of [m₁ - m₂] below 2²⁹ is at most [8·|m|/29], while there
    are more than 2²⁴ such primes, so each prime fails with probability
    [< |m|/2²¹] and [t] independent primes fail with probability
    [< (|m|/2²¹)^t].  {!residues_needed} picks [t] to reach the paper's
    [n^{-λ}] target.  The communicated size is [t·(4+4)] bytes =
    [O(λ log n)] bits, exactly the paper's cost. *)

type fp = { primes : int array; residues : int array }

(** [residues_needed ~lambda ~n ~msg_len] — the number [t] of independent
    primes needed so the failure probability is at most [n^-lambda].
    For [msg_len ≥ 29/8·2²⁴] (~61 MB) the per-prime divisor bound
    degenerates (≥ 1); it is clamped at 1/2 so [t] stays finite and
    monotone — [ceil (lambda·log₂ n)] primes at the clamp — instead of
    the division collapsing to a meaningless value. *)
val residues_needed : lambda:int -> n:int -> msg_len:int -> int

(** [sample_primes rng t] draws [t] random 29-bit primes. *)
val sample_primes : Util.Prng.t -> int -> int array

(** [residue msg p] is the big-endian integer value of [msg] mod [p]
    (Horner with one integer division per 4-byte word; [1 ≤ p ≤ 2³⁰]).
    Reference implementation — one full sweep of [msg] per call; batch
    work goes through {!residues_many}. *)
val residue : bytes -> int -> int

(** Bytes consumed per Horner step of the {!residues_many} kernel
    (exposed so tests can pin lengths that straddle chunk boundaries). *)
val chunk_bytes : int

(** [residues_many msg primes] = [Array.map (residue msg) primes],
    computed in a single pass over [msg] with no integer division in the
    sweep: each {!chunk_bytes}-byte chunk is loaded once and folded into
    {e all} accumulators as [acc·(2⁵⁶ mod p) + chunk], the multiple of
    [p] to subtract coming from the precomputed double [1/p].  The
    accumulators stay within [p + 2¹¹] of zero and are normalized once at
    the end, so the result is exact, bit-identical to the per-prime
    reference.  Raises [Invalid_argument] if a modulus is outside
    [\[1, 2³⁰)]. *)
val residues_many : bytes -> int array -> int array

(** [make rng ~t msg] samples primes and computes the fingerprint
    (residues via {!residues_many}). *)
val make : Util.Prng.t -> t:int -> bytes -> fp

(** [check fp msg] recomputes the residues of [msg] at [fp.primes]
    in one {!residues_many} sweep and compares — the receiver side of
    Algorithm 1.  A fingerprint whose arity differs or whose moduli are
    not all 29-bit (as {!sample_primes} draws them) is rejected: [false],
    never an exception, whatever a decoded message carries. *)
val check : fp -> bytes -> bool

(** [matches fp1 fp2] — equality of two fingerprints over the same primes;
    [Invalid_argument] if the primes differ. *)
val matches : fp -> fp -> bool

(** Encoded wire size in bytes, computed arithmetically (no allocation);
    always equals [Bytes.length (Util.Codec.encode encode fp)]. *)
val size_bytes : fp -> int

(** Serialization. *)
val encode : Util.Codec.writer -> fp -> unit
val decode : Util.Codec.reader -> fp
