(* SplitMix64 seeding/derivation + Xoshiro256** core, computed on pairs of
   32-bit limbs held in native ints.

   The obvious implementation (this module's original one) works on
   [int64]; without flambda every [Int64] operation boxes its result, so
   one Xoshiro step allocates ~30 words and one [derive] (six SplitMix64
   steps) several hundred — and the equality protocol derives a child
   stream per PAIR, putting the PRNG at the top of the E9 allocation
   profile.  Splitting each 64-bit word into two 32-bit limbs keeps the
   whole computation in immediate ints: a step allocates nothing, and
   [derive] allocates exactly one child record.

   Exactness: every limb stays in [0, 2^32); sums of a few limb products
   fit the 63-bit native int; and where a 32x32 product may exceed 2^63
   (so native arithmetic wraps), the wrap is harmless because it is
   modulo 2^63 and we only keep the product modulo 2^32, which divides
   it.  The full 64-bit low product needed by SplitMix64's multiplies is
   reassembled from a 16/32 split whose partial products are exact.  A
   test pins this arithmetic word-for-word against a straight [Int64]
   reference implementation.

   References: Steele, Lea, Flood (2014) for SplitMix64; Blackman &
   Vigna for Xoshiro256**. *)

type t = {
  mutable s0h : int;
  mutable s0l : int;
  mutable s1h : int;
  mutable s1l : int;
  mutable s2h : int;
  mutable s2l : int;
  mutable s3h : int;
  mutable s3l : int;
  (* Output scratch: the last generated 64-bit word, as limbs.  Draw
     operations own the generator (single-domain, like all its state);
     [derive] never touches these fields on the parent. *)
  mutable oh : int;
  mutable ol : int;
}

let m32 = 0xFFFFFFFF

(* SplitMix64 finalizer: given the already-incremented state (zh, zl),
   mix and leave the output word in [dst.oh]/[dst.ol]. *)
let sm_mix_into dst zh zl =
  (* z ^= z >> 30 *)
  let xh = zh lxor (zh lsr 30)
  and xl = zl lxor (((zl lsr 30) lor (zh lsl 2)) land m32) in
  (* z *= 0xBF58476D1CE4E5B9 *)
  let t = (xl land 0xFFFF) * 0x1CE4E5B9 in
  let u = (xl lsr 16) * 0x1CE4E5B9 in
  let lo_full = t + ((u land 0xFFFF) lsl 16) in
  let ph =
    ((lo_full lsr 32) + (u lsr 16) + (xl * 0xBF58476D) + (xh * 0x1CE4E5B9)) land m32
  in
  let pl = lo_full land m32 in
  (* z ^= z >> 27 *)
  let xh = ph lxor (ph lsr 27)
  and xl = pl lxor (((pl lsr 27) lor (ph lsl 5)) land m32) in
  (* z *= 0x94D049BB133111EB *)
  let t = (xl land 0xFFFF) * 0x133111EB in
  let u = (xl lsr 16) * 0x133111EB in
  let lo_full = t + ((u land 0xFFFF) lsl 16) in
  let qh =
    ((lo_full lsr 32) + (u lsr 16) + (xl * 0x94D049BB) + (xh * 0x133111EB)) land m32
  in
  let ql = lo_full land m32 in
  (* z ^= z >> 31 *)
  dst.oh <- qh lxor (qh lsr 31);
  dst.ol <- ql lxor (((ql lsr 31) lor (qh lsl 1)) land m32)

(* Four SplitMix64 steps expand the seed into the Xoshiro state, written
   into [dst] (which doubles as the mix scratch).  The golden-ratio
   increment 0x9E3779B97F4A7C15 is applied before each mix, as in the
   reference. *)
let expand_seed_into dst seedh seedl =
  let l1 = seedl + 0x7F4A7C15 in
  let h1 = (seedh + 0x9E3779B9 + (l1 lsr 32)) land m32 in
  let l1 = l1 land m32 in
  sm_mix_into dst h1 l1;
  dst.s0h <- dst.oh;
  dst.s0l <- dst.ol;
  let l2 = l1 + 0x7F4A7C15 in
  let h2 = (h1 + 0x9E3779B9 + (l2 lsr 32)) land m32 in
  let l2 = l2 land m32 in
  sm_mix_into dst h2 l2;
  dst.s1h <- dst.oh;
  dst.s1l <- dst.ol;
  let l3 = l2 + 0x7F4A7C15 in
  let h3 = (h2 + 0x9E3779B9 + (l3 lsr 32)) land m32 in
  let l3 = l3 land m32 in
  sm_mix_into dst h3 l3;
  dst.s2h <- dst.oh;
  dst.s2l <- dst.ol;
  let l4 = l3 + 0x7F4A7C15 in
  let h4 = (h3 + 0x9E3779B9 + (l4 lsr 32)) land m32 in
  let l4 = l4 land m32 in
  sm_mix_into dst h4 l4;
  dst.s3h <- dst.oh;
  dst.s3l <- dst.ol;
  (* Xoshiro must not start at the all-zero state. *)
  if
    dst.s0h lor dst.s0l lor dst.s1h lor dst.s1l lor dst.s2h lor dst.s2l lor dst.s3h
    lor dst.s3l
    = 0
  then begin
    dst.s0h <- 0;
    dst.s0l <- 1;
    dst.s1h <- 0;
    dst.s1l <- 2;
    dst.s2h <- 0;
    dst.s2l <- 3;
    dst.s3h <- 0;
    dst.s3l <- 4
  end

let fresh () =
  { s0h = 0; s0l = 0; s1h = 0; s1l = 0; s2h = 0; s2l = 0; s3h = 0; s3l = 0; oh = 0; ol = 0 }

let of_seed_limbs seedh seedl =
  let t = fresh () in
  expand_seed_into t seedh seedl;
  t

(* [create seed] seeds from the sign-extended 64-bit image of [seed],
   exactly [Int64.of_int seed]. *)
let create seed = of_seed_limbs ((seed asr 32) land m32) (seed land m32)

(* Xoshiro256** step: advance the state and leave the output word in
   [t.oh]/[t.ol].  All arithmetic is immediate-int; nothing allocates. *)
let step t =
  let s1h = t.s1h and s1l = t.s1l in
  (* result = rotl(s1 * 5, 7) * 9 *)
  let pf = s1l * 5 in
  let pl = pf land m32 in
  let ph = ((s1h * 5) + (pf lsr 32)) land m32 in
  let rh = ((ph lsl 7) lor (pl lsr 25)) land m32 in
  let rl = ((pl lsl 7) lor (ph lsr 25)) land m32 in
  let qf = rl * 9 in
  t.ol <- qf land m32;
  t.oh <- ((rh * 9) + (qf lsr 32)) land m32;
  (* tmp = s1 << 17 *)
  let th = ((s1h lsl 17) lor (s1l lsr 15)) land m32 in
  let tl = (s1l lsl 17) land m32 in
  t.s2h <- t.s2h lxor t.s0h;
  t.s2l <- t.s2l lxor t.s0l;
  t.s3h <- t.s3h lxor s1h;
  t.s3l <- t.s3l lxor s1l;
  t.s1h <- s1h lxor t.s2h;
  t.s1l <- s1l lxor t.s2l;
  t.s0h <- t.s0h lxor t.s3h;
  t.s0l <- t.s0l lxor t.s3l;
  t.s2h <- t.s2h lxor th;
  t.s2l <- t.s2l lxor tl;
  (* s3 = rotl(s3, 45) — a 32-bit limb swap plus rotl 13. *)
  let h3 = t.s3h and l3 = t.s3l in
  t.s3h <- ((l3 lsl 13) lor (h3 lsr 19)) land m32;
  t.s3l <- ((h3 lsl 13) lor (l3 lsr 19)) land m32

let bits64 t =
  step t;
  Int64.logor (Int64.shift_left (Int64.of_int t.oh) 32) (Int64.of_int t.ol)

let split t =
  step t;
  of_seed_limbs t.oh t.ol

let copy t =
  {
    s0h = t.s0h;
    s0l = t.s0l;
    s1h = t.s1h;
    s1l = t.s1l;
    s2h = t.s2h;
    s2l = t.s2l;
    s3h = t.s3h;
    s3l = t.s3l;
    oh = 0;
    ol = 0;
  }

let derive t ~key =
  (* Counter-keyed child stream: a pure function of the parent's current
     state and [key].  Unlike [split], the parent is only read, never
     advanced (and its scratch is untouched), so deriving many children
     is order- and domain-independent — the property parallel per-pair
     protocol code relies on.  The four state words are folded with
     rotations (so permuted states map to different digests) and the key
     is pushed through two SplitMix64 steps before the seed expansion
     adds four more, decorrelating adjacent keys. *)
  let dh =
    t.s0h
    lxor (((t.s1h lsl 17) lor (t.s1l lsr 15)) land m32)
    lxor (((t.s2h lsl 31) lor (t.s2l lsr 1)) land m32)
    lxor (((t.s3l lsl 15) lor (t.s3h lsr 17)) land m32)
  and dl =
    t.s0l
    lxor (((t.s1l lsl 17) lor (t.s1h lsr 15)) land m32)
    lxor (((t.s2l lsl 31) lor (t.s2h lsr 1)) land m32)
    lxor (((t.s3h lsl 15) lor (t.s3l lsr 17)) land m32)
  in
  let sth = dh lxor ((key asr 32) land m32) and stl = dl lxor (key land m32) in
  (* seed = splitmix(st) ^ splitmix(st') — the child record doubles as
     scratch for the two mixes before its state is expanded in place. *)
  let child = fresh () in
  let l1 = stl + 0x7F4A7C15 in
  let h1 = (sth + 0x9E3779B9 + (l1 lsr 32)) land m32 in
  let l1 = l1 land m32 in
  sm_mix_into child h1 l1;
  let o1h = child.oh and o1l = child.ol in
  let l2 = l1 + 0x7F4A7C15 in
  let h2 = (h1 + 0x9E3779B9 + (l2 lsr 32)) land m32 in
  let l2 = l2 land m32 in
  sm_mix_into child h2 l2;
  expand_seed_into child (o1h lxor child.oh) (o1l lxor child.ol);
  child

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling on the top 62 bits to avoid modulo bias: a draw
     [r] is rejected when [r - r mod bound] starts an incomplete block of
     [bound] values below 2^62.  A loop rather than a local recursive
     closure, which would allocate on every call — and sample_into calls
     this 2t - 1 times per pair of every equality round. *)
  let limit = 0x3FFF_FFFF_FFFF_FFFF - bound + 1 in
  step t;
  let r = ref ((t.oh lsl 30) lor (t.ol lsr 2)) in
  let v = ref (!r mod bound) in
  while !r - !v > limit do
    step t;
    r := (t.oh lsl 30) lor (t.ol lsr 2);
    v := !r mod bound
  done;
  !v

let int_in t lo hi =
  if lo > hi then invalid_arg "Prng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let float t =
  (* 53 random bits scaled to [0,1). *)
  step t;
  let r = (t.oh lsl 21) lor (t.ol lsr 11) in
  float_of_int r *. (1.0 /. 9007199254740992.0)

let bool t =
  step t;
  t.ol land 1 = 1

let bernoulli t p =
  if p <= 0.0 then false else if p >= 1.0 then true else float t < p

let byte t =
  step t;
  t.ol land 0xFF

let bytes t len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (byte t))
  done;
  b

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* Max-heap sift-down over [a.(lo) .. a.(lo + size - 1)], from [root]. *)
let sift_down (a : int array) lo root size =
  let v = a.(lo + root) and r = ref root and go = ref true in
  while !go do
    let c = (2 * !r) + 1 in
    if c >= size then go := false
    else begin
      let c = if c + 1 < size && a.(lo + c + 1) > a.(lo + c) then c + 1 else c in
      if a.(lo + c) > v then begin
        a.(lo + !r) <- a.(lo + c);
        r := c
      end
      else go := false
    end
  done;
  a.(lo + !r) <- v

(* In-place sort of [a.(lo) .. a.(hi - 1)], with no allocation and no
   comparison closure: insertion sort up to 128 elements, where its
   predictable branches beat a heap on random draws (74 of them: 2.3
   vs 5.6 us on a 2-core Xeon), heapsort above, so m elements cost
   O(m log m) in the worst case. *)
let sort_range (a : int array) lo hi =
  let size = hi - lo in
  if size <= 128 then
    for x = lo + 1 to hi - 1 do
      let v = a.(x) and y = ref (x - 1) in
      while !y >= lo && a.(!y) > v do
        a.(!y + 1) <- a.(!y);
        decr y
      done;
      a.(!y + 1) <- v
    done
  else begin
    for root = (size / 2) - 1 downto 0 do
      sift_down a lo root size
    done;
    for last = size - 1 downto 1 do
      let top = a.(lo) in
      a.(lo) <- a.(lo + last);
      a.(lo + last) <- top;
      sift_down a lo 0 last
    done
  end

let sample_array t ~n ~k =
  if k < 0 || k > n then invalid_arg "Prng.sample_array";
  if k = 0 then [||]
  else if 2 * k >= n then begin
    (* Dense case: shuffle a full index array and keep a prefix.  The
       kept values are marked in an n-byte map, whose scan lists them in
       increasing order (into the consumed index array). *)
    let arr = Array.init n (fun i -> i) in
    shuffle t arr;
    let kept = Bytes.make n '\000' in
    for x = 0 to k - 1 do
      Bytes.unsafe_set kept arr.(x) '\001'
    done;
    let j = ref 0 in
    for v = 0 to n - 1 do
      if Bytes.unsafe_get kept v <> '\000' then begin
        arr.(!j) <- v;
        incr j
      end
    done;
    if k = n then arr else Array.sub arr 0 k
  end
  else begin
    (* Sparse case: rejection sampling, in batches.  With [c] distinct
       values held sorted in [acc], the next [k - c] draws go to the
       tail of [out], are sorted there and merged with [acc] into the
       front of [out], dropping repeats (the write position never
       passes an unread draw).  A draw adds at most one new value, so
       the batch that reaches [k] ends on exactly the draw where drawing
       one value at a time, skipping repeats, would stop: the same
       draws and the same set.  Each batch costs O(k log k), and while
       [2k < n] every draw is new with probability above 1/2, so the
       batches shrink geometrically. *)
    let acc = ref (Array.make k 0) and out = ref (Array.make k 0) and c = ref 0 in
    while !c < k do
      let a = !acc and o = !out and held = !c in
      for x = held to k - 1 do
        o.(x) <- int t n
      done;
      sort_range o held k;
      let i = ref 0 and j = ref held and w = ref 0 and last = ref (-1) in
      while !i < held || !j < k do
        let v =
          if !j >= k || (!i < held && a.(!i) <= o.(!j)) then begin
            let v = a.(!i) in
            incr i;
            v
          end
          else begin
            let v = o.(!j) in
            incr j;
            v
          end
        in
        if v <> !last then begin
          o.(!w) <- v;
          incr w;
          last := v
        end
      done;
      c := !w;
      acc := o;
      out := a
    done;
    !acc
  end

let sample_without_replacement t ~n ~k =
  if k < 0 || k > n then invalid_arg "Prng.sample_without_replacement";
  Array.to_list (sample_array t ~n ~k)

let sample_into t ~n ~k ~scratch ~dst ~pos =
  if k < 0 || k > n then invalid_arg "Prng.sample_into";
  if k = 0 then ()
  else if 2 * k >= n then begin
    (* Dense case, allocation-free: Fisher-Yates over the identity prefix
       of [scratch] (draw-for-draw the [shuffle] loop on an [n]-array),
       then an in-place sort of the kept prefix — the same sorted
       k-subset [sample_array] returns, without its per-call arrays. *)
    if Array.length scratch < n then invalid_arg "Prng.sample_into: scratch too short";
    for x = 0 to n - 1 do
      scratch.(x) <- x
    done;
    for i = n - 1 downto 1 do
      let j = int t (i + 1) in
      let tmp = scratch.(i) in
      scratch.(i) <- scratch.(j);
      scratch.(j) <- tmp
    done;
    Array.blit scratch 0 dst pos k;
    sort_range dst pos (pos + k)
  end
  else Array.blit (sample_array t ~n ~k) 0 dst pos k

let pick t lst =
  match lst with
  | [] -> invalid_arg "Prng.pick: empty list"
  | _ -> List.nth lst (int t (List.length lst))

let subset_bernoulli t ~n ~p =
  let rec go i acc =
    if i >= n then List.rev acc
    else if bernoulli t p then go (i + 1) (i :: acc)
    else go (i + 1) acc
  in
  go 0 []
