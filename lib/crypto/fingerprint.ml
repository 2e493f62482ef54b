type fp = { primes : int array; residues : int array }

let prime_bits = 29

(* The per-prime failure bound (#29-bit prime divisors of the difference /
   #29-bit primes) exceeds 1 once msg_len >= 29/8 * 2^24 bytes (~61 MB):
   past that point the crude divisor count says nothing and the raw
   formula would take the log of a number >= 1.  Clamp each prime's
   failure probability at 1/2 — t then degrades gracefully to the
   ceil(lambda*log2 n) primes a one-bit-per-prime bound needs, instead of
   collapsing to a nonsensical t = 1 via int_of_float nan. *)
let degenerate_per_prime = 0.5

let residues_needed ~lambda ~n ~msg_len =
  (* Failure of one prime: #(29-bit prime divisors of a |m|-byte difference)
     / #(29-bit primes) <= (8*msg_len/29) / 2^24 approx. msg_len <= 2^20 in
     practice, so one prime fails with prob < 2^-6; solve
     (per_prime)^t <= n^-lambda. *)
  let per_prime =
    let divisors = max 1 (8 * max 1 msg_len / prime_bits) in
    min degenerate_per_prime (float_of_int divisors /. (2.0 ** 24.0))
  in
  let target = -.float_of_int lambda *. log (float_of_int (max 2 n)) in
  let t = int_of_float (ceil (target /. log per_prime)) in
  max 1 t

let sample_primes rng t =
  Array.init t (fun _ -> Field.Primality.random_prime_bits rng ~bits:prime_bits)

(* Horner evaluation of the message as a base-256 number mod p, 4 bytes per
   step: acc < p <= 2^30, so (acc lsl 32) lor word < 2^62 never overflows a
   63-bit int.  One division per word: the plain reference the
   division-free kernel below is tested against. *)
let residue msg p =
  let len = Bytes.length msg in
  let acc = ref 0 in
  let k = ref 0 in
  while !k + 4 <= len do
    let word = Int32.to_int (Bytes.get_int32_be msg !k) land 0xFFFFFFFF in
    acc := ((!acc lsl 32) lor word) mod p;
    k := !k + 4
  done;
  while !k < len do
    acc := ((!acc lsl 8) lor Char.code (Bytes.get msg !k)) mod p;
    incr k
  done;
  !acc

(* ---- Division-free single-pass multi-prime kernel -------------------- *)

(* [residues_many] computes [residue msg p] for every prime of an array in
   ONE sweep over the message, updating all t accumulators per chunk, and
   without a single integer division in the sweep.

   Horner steps 7 bytes at a time: with c_p = 2^56 mod p and w < 2^56 the
   next chunk's big-endian value,

     acc' = acc * c_p + w  (mod p).

   The quotient of y = acc * c_p + w by p is estimated with the
   precomputed double reciprocal inv_p = fl(1/p) and the remainder taken
   exactly in integers:

     q = truncate (fl (fl y * inv_p)),   acc' = y - q * p.

   acc is never reduced to [0, p) inside the sweep.  The invariant is
   |acc| < p + 2^11 for every modulus 1 <= p < 2^30:

   - y is exact: |acc * c_p| < (p + 2^11) * p < 2^61 and w < 2^56, so
     |y| < 2^61 + 2^56 and no 63-bit int overflows;
   - each of the three roundings (fl y, fl (1/p) and their product) has
     relative error under 2^-52 in any rounding mode, so the estimate is
     within |y/p| * 2^-50 of y/p, and truncation within 1 more.  Hence
     |acc'| = |y - q * p| < p + |y| * 2^-50
                         < p + (p + 2^11) * p * 2^-50 + 2^56 * 2^-50
                         < p + 2^10 + 2^6 + 1 < p + 2^11.

   The residue is therefore exact after one final [mod] per prime.  For
   the 29-bit primes fingerprints use, |acc| stays below p + 2^9.

   Each 7-byte step costs two multiplies, an int-to-double round trip and
   one double multiply, where [residue] pays a 63-bit [idiv] per 4 bytes.
   Updating the t accumulators per chunk keeps the t dependency chains
   independent, so the CPU overlaps their latencies, and reads each
   message byte once whatever t is.  QCheck-pinned against [residue] in
   test_fp_kernel. *)

let chunk_bytes = 7

(* Moduli must be below this: keeps |acc * c_p| under 2^61. *)
let max_modulus = 1 lsl 30

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* Big-endian value of the 7 bytes at offset [k].  It loads 8 bytes, so
   the caller guarantees [k + 8 <= Bytes.length msg]. *)
let[@inline] chunk_be msg k =
  let w = if Sys.big_endian then get64u msg k else swap64 (get64u msg k) in
  Int64.to_int (Int64.shift_right_logical w 8)

(* One lazy Horner step (see above): [acc * c + w] minus its estimated
   multiple of [p]. *)
let[@inline] step acc c inv p w =
  let y = (acc * c) + w in
  y - (int_of_float (float_of_int y *. inv) * p)

(* Lane [k] of a 4-lane step: its [y] first, then its quotient estimate,
   then its new accumulator (see [residues_many]). *)
let[@inline] lane_y acc c k w = (Array.unsafe_get acc k * Array.unsafe_get c k) + w
let[@inline] lane_q inv k y = float_of_int y *. Array.unsafe_get inv k
let[@inline] lane_set acc p k y q = Array.unsafe_set acc k (y - (int_of_float q * Array.unsafe_get p k))

(* The residues of [msg] at every prime of [primes].

   The sweep steps primes four at a time with the four quotient estimates
   live together.  That puts each lane's int-to-double conversion in its
   own register: the conversion writes only the low half of its register,
   so a single lane reusing one register chains every conversion to the
   previous step's multiply.  Four lanes measured 1.6-2.8x faster than
   one on fp-micro's 64-prime rows. *)
let residues_many msg primes =
  if Array.exists (fun p -> p < 1 || p >= max_modulus) primes then
    invalid_arg "Fingerprint.residues_many: modulus outside [1, 2^30)";
  let len = Bytes.length msg in
  let width = Array.length primes in
  let p = primes in
  let c = Array.map (fun p -> (1 lsl 56) mod p) p in
  let inv = Array.make width 0.0 in
  for k = 0 to width - 1 do
    inv.(k) <- 1.0 /. float_of_int p.(k)
  done;
  let acc = Array.make width 0 in
  let quads = width land lnot 3 in
  let off = ref 0 in
  while !off + 8 <= len do
    let w = chunk_be msg !off in
    let k = ref 0 in
    while !k < quads do
      let k0 = !k in
      let k1 = k0 + 1 and k2 = k0 + 2 and k3 = k0 + 3 in
      let y0 = lane_y acc c k0 w and y1 = lane_y acc c k1 w in
      let y2 = lane_y acc c k2 w and y3 = lane_y acc c k3 w in
      let q0 = lane_q inv k0 y0 and q1 = lane_q inv k1 y1 in
      let q2 = lane_q inv k2 y2 and q3 = lane_q inv k3 y3 in
      lane_set acc p k0 y0 q0;
      lane_set acc p k1 y1 q1;
      lane_set acc p k2 y2 q2;
      lane_set acc p k3 y3 q3;
      k := k0 + 4
    done;
    for k = quads to width - 1 do
      Array.unsafe_set acc k
        (step (Array.unsafe_get acc k) (Array.unsafe_get c k) (Array.unsafe_get inv k)
           (Array.unsafe_get p k) w)
    done;
    off := !off + chunk_bytes
  done;
  (* The last r = len - off <= 7 bytes: one step by 2^(8r), then
     normalize. *)
  let shift = 1 lsl (8 * (len - !off)) in
  let w = ref 0 in
  for i = !off to len - 1 do
    w := (!w lsl 8) lor Char.code (Bytes.unsafe_get msg i)
  done;
  Array.init width (fun k ->
      let p = p.(k) in
      let c = if shift < p then shift else shift mod p in
      let r = step acc.(k) c inv.(k) p !w mod p in
      if r < 0 then r + p else r)

let make rng ~t msg =
  let primes = sample_primes rng t in
  { primes; residues = residues_many msg primes }

(* Primes arrive off the wire; an honest fingerprint only ever carries
   [prime_bits]-bit primes, so any other modulus (0, 1, or one the kernel
   cannot take) is a rejection, not an exception or a trivial match. *)
let sampled_modulus p = p >= 1 lsl (prime_bits - 1) && p < 1 lsl prime_bits

let check fp msg =
  Array.for_all sampled_modulus fp.primes
  && fp.residues = residues_many msg fp.primes

let matches fp1 fp2 =
  if fp1.primes <> fp2.primes then
    invalid_arg "Fingerprint.matches: prime sets differ";
  fp1.residues = fp2.residues

let encode w fp =
  Util.Codec.write_array w Util.Codec.write_varint fp.primes;
  Util.Codec.write_array w Util.Codec.write_varint fp.residues

let decode r =
  let primes = Util.Codec.read_array r Util.Codec.read_varint in
  let residues = Util.Codec.read_array r Util.Codec.read_varint in
  if Array.length primes <> Array.length residues then
    raise (Util.Codec.Decode_error "fingerprint arity mismatch");
  { primes; residues }

(* Wire size, computed arithmetically — encoding the whole fingerprint
   just to measure it allocated a full copy per call. *)
let size_bytes fp =
  let varints a =
    Array.fold_left
      (fun acc v -> acc + Util.Codec.varint_size v)
      (Util.Codec.varint_size (Array.length a))
      a
  in
  varints fp.primes + varints fp.residues
