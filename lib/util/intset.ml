(* Open-addressing int hash set: power-of-two table, linear probing,
   [-1] = empty.  Load factor is kept <= 3/4: probe chains stay short
   under the multiplicative hash, and a set of d elements fits a table
   of at most 8d/3 words. *)

type t = { mutable slots : int array; mutable size : int }

(* [fits size cap]: [size] elements respect the load bound in [cap] slots. *)
let[@inline] fits size cap = 4 * size <= 3 * cap

(* The smallest table (a power of two, at least 8 slots) that holds [m]
   elements within the load bound. *)
let table_for m =
  let cap = ref 8 in
  while not (fits m !cap) do
    cap := 2 * !cap
  done;
  !cap

let create ?(capacity = 0) () = { slots = Array.make (table_for capacity) (-1); size = 0 }

(* Fibonacci hashing: multiply by 2^63/phi and keep the top bits.  Party
   ids are small and sequential, which a plain [v land mask] would pack
   into one clustered run; the multiply spreads them over the table. *)
let[@inline] slot_of slots v =
  let mask = Array.length slots - 1 in
  (v * 0x2545F4914F6CDD1D) lsr 8 land mask

let[@inline] probe slots v =
  (* Returns the index holding [v], or the empty index where it would
     be inserted.  The table always has empty slots (load <= 3/4), so
     the scan terminates. *)
  let mask = Array.length slots - 1 in
  let i = ref (slot_of slots v) in
  while
    let s = Array.unsafe_get slots !i in
    s >= 0 && s <> v
  do
    i := (!i + 1) land mask
  done;
  !i

let mem t v = v >= 0 && Array.unsafe_get t.slots (probe t.slots v) = v

let rehash t cap =
  let old = t.slots in
  let slots = Array.make cap (-1) in
  for k = 0 to Array.length old - 1 do
    let v = Array.unsafe_get old k in
    if v >= 0 then Array.unsafe_set slots (probe slots v) v
  done;
  t.slots <- slots

let reserve t m = if not (fits m (Array.length t.slots)) then rehash t (table_for m)

let add t v =
  if v < 0 then invalid_arg "Intset.add: negative element";
  let i = probe t.slots v in
  if Array.unsafe_get t.slots i <> v then begin
    t.slots.(i) <- v;
    t.size <- t.size + 1;
    if not (fits t.size (Array.length t.slots)) then rehash t (2 * Array.length t.slots)
  end

let cardinal t = t.size
let iter f t = Array.iter (fun v -> if v >= 0 then f v) t.slots
let fold f t init =
  Array.fold_left (fun acc v -> if v >= 0 then f v acc else acc) init t.slots

let to_sorted_list t =
  let l = fold (fun v acc -> v :: acc) t [] in
  List.sort compare l

let to_iset t = fold Iset.add t Iset.empty
