(** Static corruption sets.

    The paper's adversary is {b static} and {b malicious}: before the
    protocol begins it picks up to [n - h] parties to corrupt, then controls
    them arbitrarily.  This module represents who is corrupted and provides
    the samplers the experiments use (uniform corruption, targeted
    corruption around a victim, etc.). *)

type t

(** [make ~n ~corrupted] — [corrupted] must be a subset of [0..n-1]. *)
val make : n:int -> corrupted:Util.Iset.t -> t

(** [none ~n] — the all-honest execution (used for cost measurement). *)
val none : n:int -> t

(** [random rng ~n ~h] corrupts a uniformly random set of exactly [n - h]
    parties. Requires [1 <= h <= n]. *)
val random : Util.Prng.t -> n:int -> h:int -> t

(** [targeting rng ~n ~h ~victim] — the Appendix A adversary: [victim] is
    honest, the other [h - 1] honest parties are uniformly random, the rest
    are corrupted. *)
val targeting : Util.Prng.t -> n:int -> h:int -> victim:int -> t

val n : t -> int
val num_honest : t -> int
val num_corrupted : t -> int

(** O(1): a [t] keeps one byte per party for these lookups.  An id
    outside [\[0, n)] is never corrupted. *)
val is_honest : t -> int -> bool

val is_corrupted : t -> int -> bool
val honest : t -> Util.Iset.t
val corrupted : t -> Util.Iset.t
val honest_list : t -> int list
val corrupted_list : t -> int list
