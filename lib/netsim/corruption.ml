(* [bad] answers [corrupted]/[honest]; [mask] (one byte per party,
   nonzero = corrupted) answers the per-party lookups in O(1). *)
type t = { total : int; bad : Util.Iset.t; mask : Bytes.t }

let make ~n ~corrupted =
  if n <= 0 then invalid_arg "Corruption.make: n must be positive";
  let mask = Bytes.make n '\000' in
  Util.Iset.iter
    (fun i ->
      if i < 0 || i >= n then invalid_arg "Corruption.make: party out of range";
      Bytes.unsafe_set mask i '\001')
    corrupted;
  { total = n; bad = corrupted; mask }

let none ~n = make ~n ~corrupted:Util.Iset.empty

let random rng ~n ~h =
  if h < 1 || h > n then invalid_arg "Corruption.random: need 1 <= h <= n";
  let bad = Util.Prng.sample_array rng ~n ~k:(n - h) in
  make ~n ~corrupted:(Util.Iset.of_list (Array.to_list bad))

let targeting rng ~n ~h ~victim =
  if h < 1 || h > n then invalid_arg "Corruption.targeting: need 1 <= h <= n";
  if victim < 0 || victim >= n then invalid_arg "Corruption.targeting: bad victim";
  (* Pick h-1 random honest parties among the others; corrupt the rest. *)
  let others = List.filter (fun i -> i <> victim) (List.init n (fun i -> i)) in
  let arr = Array.of_list others in
  Util.Prng.shuffle rng arr;
  let honest_others = Array.to_list (Array.sub arr 0 (h - 1)) in
  let honest = Util.Iset.of_list (victim :: honest_others) in
  let bad = Util.Iset.diff (Util.Iset.range 0 (n - 1)) honest in
  make ~n ~corrupted:bad

let n t = t.total
let num_corrupted t = Util.Iset.cardinal t.bad
let num_honest t = t.total - num_corrupted t
let is_corrupted t i = i >= 0 && i < t.total && Bytes.unsafe_get t.mask i <> '\000'
let is_honest t i = not (is_corrupted t i)
let corrupted t = t.bad
let honest t = Util.Iset.diff (Util.Iset.range 0 (t.total - 1)) t.bad
let honest_list t = Util.Iset.to_sorted_list (honest t)
let corrupted_list t = Util.Iset.to_sorted_list t.bad
