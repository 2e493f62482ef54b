(* Equivalence suite for the division-free multi-prime fingerprint
   kernel: [Fingerprint.residues_many] must agree bit-for-bit with the
   reference per-prime [Fingerprint.residue] sweep (one integer division
   per word) on every message length (chunk boundaries included) and
   every modulus the kernel accepts — the kernel is a pure rewrite of the
   arithmetic, never of the result. *)

let checkb = Alcotest.(check bool)
let cb = Crypto.Fingerprint.chunk_bytes

(* A multi-kilobyte length scale, so sweeps run thousands of steps. *)
let kb = 4096

let reference msg primes = Array.map (Crypto.Fingerprint.residue msg) primes

(* Deterministic pseudo-random message of length [len]. *)
let msg_of ~seed len = Util.Prng.bytes (Util.Prng.create (0x5EED + seed)) len

let prime_set ~seed t =
  Crypto.Fingerprint.sample_primes (Util.Prng.create (0xF00D + seed)) t

(* Lengths that straddle every boundary the kernel treats specially:
   empty, every tail length 0..7 around the first chunks (the sweep loads
   8 bytes per 7-byte chunk, so a 7-byte rest goes to the tail), chunk
   multiples with 0..5 bytes either side, and multi-kilobyte lengths. *)
let boundary_lengths =
  List.init 24 Fun.id
  @ List.concat_map (fun b -> [ b - 5; b - 1; b; b + 1; b + 2; b + 5 ]) [ 9 * cb; kb; 2 * kb ]
  @ [ (2 * kb) + 1711; (3 * kb) + 3 ]

let test_boundary_lengths () =
  List.iteri
    (fun k len ->
      let msg = msg_of ~seed:k len in
      let primes = prime_set ~seed:k 7 in
      checkb (Printf.sprintf "len %d" len) true
        (reference msg primes = Crypto.Fingerprint.residues_many msg primes))
    boundary_lengths

let test_empty_message_and_no_primes () =
  let primes = prime_set ~seed:1 3 in
  checkb "empty msg" true
    (Crypto.Fingerprint.residues_many Bytes.empty primes = Array.make 3 0);
  checkb "no primes" true (Crypto.Fingerprint.residues_many (msg_of ~seed:2 100) [||] = [||])

let test_single_byte_tail_after_blocks () =
  (* A message of k kilobyte blocks plus one byte: a long sweep, then a
     1-byte tail step. *)
  List.iter
    (fun blocks ->
      let len = (blocks * kb) + 1 in
      let msg = msg_of ~seed:blocks len in
      let primes = prime_set ~seed:blocks 5 in
      checkb (Printf.sprintf "%d blocks + 1" blocks) true
        (reference msg primes = Crypto.Fingerprint.residues_many msg primes))
    [ 1; 2; 3 ]

let prop_kernel_equiv_reference =
  QCheck.Test.make ~count:300 ~name:"residues_many = per-prime residue (random msg/primes)"
    QCheck.(pair (pair small_nat small_nat) (int_range 1 40))
    (fun ((seed, len_seed), t) ->
      (* Random length, up to two kilobyte blocks and then some. *)
      let len = len_seed * 67 mod ((2 * kb) + 97) in
      let msg = msg_of ~seed len in
      let primes = prime_set ~seed t in
      reference msg primes = Crypto.Fingerprint.residues_many msg primes)

(* ---- the reduction's range: extreme moduli and extreme chunks ---- *)

let largest_prime_below n =
  let rec go k = if Field.Primality.is_prime k then k else go (k - 1) in
  go (n - 1)

(* The ends of the sampled 29-bit range, the largest modulus the kernel
   accepts, and small and composite moduli where the quotient estimate
   is furthest off (|y/p| up to 2^55). *)
let edge_moduli =
  [
    Field.Primality.next_prime (1 lsl 28);
    largest_prime_below (1 lsl 29);
    largest_prime_below (1 lsl 30);
    (1 lsl 30) - 1;
    1 lsl 28;
    1;
    2;
    3;
    255;
    256;
    65521;
    1 lsl 16;
  ]

(* All-0xFF messages make every chunk 2^56 - 1, the largest addend; all
   zero bytes and alternating bytes pin the other ends. *)
let test_edge_moduli_and_chunks () =
  List.iter
    (fun (name, fill) ->
      List.iter
        (fun len ->
          let msg = Bytes.init len fill in
          let primes = Array.of_list edge_moduli in
          checkb (Printf.sprintf "%s len %d" name len) true
            (reference msg primes = Crypto.Fingerprint.residues_many msg primes))
        [ 1; 7; 8; 14; 15; 64; 1000; kb + 3 ])
    [
      ("0xff", fun _ -> '\xff');
      ("0x00", fun _ -> '\x00');
      ("alternating", fun i -> if i land 1 = 0 then '\xff' else '\x00');
    ]

let prop_kernel_any_modulus =
  QCheck.Test.make ~count:300 ~name:"residues_many = residue for any modulus in [1, 2^30)"
    QCheck.(triple small_nat (int_range 0 600) (int_range 1 8))
    (fun (seed, len, t) ->
      let rng = Util.Prng.create (0xACE + seed) in
      (* Moduli spread over every bit width up to 30. *)
      let primes =
        Array.init t (fun _ ->
            let bits = 1 + Util.Prng.int rng 30 in
            max 1 (Util.Prng.int rng (1 lsl bits)))
      in
      let msg = msg_of ~seed len in
      reference msg primes = Crypto.Fingerprint.residues_many msg primes)

let test_rejects_bad_moduli () =
  let msg = msg_of ~seed:3 50 in
  List.iter
    (fun p ->
      checkb (Printf.sprintf "residues_many rejects %d" p) true
        (match Crypto.Fingerprint.residues_many msg [| 1_000_003; p |] with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ 0; -1; -7; 1 lsl 30; max_int ];
  (* [check] sees moduli off the wire: out-of-range ones are a rejection,
     never an exception or a vacuous match (every residue mod 1 is 0). *)
  let fp = Crypto.Fingerprint.make (Util.Prng.create 5) ~t:3 msg in
  let with_prime p = { Crypto.Fingerprint.primes = Array.make 3 p; residues = Array.make 3 0 } in
  checkb "honest fp accepted" true (Crypto.Fingerprint.check fp msg);
  List.iter
    (fun p ->
      checkb (Printf.sprintf "check rejects modulus %d" p) false
        (Crypto.Fingerprint.check (with_prime p) msg))
    [ 0; 1; 2; -5; 1 lsl 29; 1 lsl 30; max_int ];
  checkb "check rejects arity mismatch" false
    (Crypto.Fingerprint.check
       { fp with Crypto.Fingerprint.residues = Array.sub fp.Crypto.Fingerprint.residues 0 2 }
       msg)

(* ---- residues_needed: degenerate clamp ---- *)

(* The per-prime failure bound (8·msg_len/29)/2²⁴ reaches the 1/2 clamp at
   msg_len = 29·2²³/8 — beyond it the divisor-count estimate is vacuous and
   [t] must sit at the clamp value ceil(λ·log₂ n) instead of diverging (or
   the division collapsing through 1.0, where log per_prime flips sign). *)
let clamp_len = 29 * 8388608 / 8

let test_residues_needed_clamp_value () =
  List.iter
    (fun (lambda, n) ->
      let expected =
        int_of_float (ceil (float_of_int lambda *. log (float_of_int (max 2 n)) /. log 2.0))
      in
      List.iter
        (fun msg_len ->
          Alcotest.(check int)
            (Printf.sprintf "clamped t (lambda=%d n=%d len=%d)" lambda n msg_len)
            (max 1 expected)
            (Crypto.Fingerprint.residues_needed ~lambda ~n ~msg_len))
        [ clamp_len; 2 * clamp_len; 1_000_000_000; max_int / 16 ])
    [ (1, 2); (1, 64); (2, 1024); (3, 4096) ]

let test_residues_needed_monotone_and_positive () =
  List.iter
    (fun (lambda, n) ->
      let prev = ref 0 in
      List.iter
        (fun msg_len ->
          let t = Crypto.Fingerprint.residues_needed ~lambda ~n ~msg_len in
          checkb (Printf.sprintf "t >= 1 at len %d" msg_len) true (t >= 1);
          checkb
            (Printf.sprintf "t monotone at len %d (lambda=%d n=%d)" msg_len lambda n)
            true (t >= !prev);
          prev := t)
        [ 0; 1; 64; 4096; 1_000_000; clamp_len - 1; clamp_len; clamp_len + 1; 10 * clamp_len ])
    [ (1, 16); (2, 256); (3, 2048) ]

(* ---- size_bytes: arithmetic size = encoded size ---- *)

let prop_size_bytes_pins_encoding =
  QCheck.Test.make ~count:300 ~name:"size_bytes = |encode fp| (no allocation)"
    QCheck.(pair small_nat (int_range 0 24))
    (fun (seed, t) ->
      (* Random primes/residues spanning 1- and multi-byte varints. *)
      let rng = Util.Prng.create (0xBEEF + seed) in
      let fp =
        { Crypto.Fingerprint.primes =
            Array.init t (fun _ -> Util.Prng.int rng (1 lsl 29));
          residues = Array.init t (fun _ -> Util.Prng.int rng (1 lsl 29))
        }
      in
      Crypto.Fingerprint.size_bytes fp
      = Bytes.length (Util.Codec.encode Crypto.Fingerprint.encode fp))

let test_make_check_route_through_kernel () =
  let rng = Util.Prng.create 77 in
  let msg = msg_of ~seed:9 (kb + 257) in
  let fp = Crypto.Fingerprint.make rng ~t:6 msg in
  checkb "make = reference residues" true (fp.Crypto.Fingerprint.residues = reference msg fp.Crypto.Fingerprint.primes);
  checkb "check accepts" true (Crypto.Fingerprint.check fp msg);
  let tampered = Bytes.copy msg in
  Bytes.set tampered 0 (Char.chr (Char.code (Bytes.get tampered 0) lxor 1));
  checkb "check rejects flip" false (Crypto.Fingerprint.check fp tampered)

let () =
  Alcotest.run "fp_kernel"
    [
      ( "kernel",
        [
          Alcotest.test_case "block-boundary lengths" `Quick test_boundary_lengths;
          Alcotest.test_case "empty msg / empty primes" `Quick test_empty_message_and_no_primes;
          Alcotest.test_case "1-byte tails after blocks" `Quick test_single_byte_tail_after_blocks;
          Alcotest.test_case "make/check routed" `Quick test_make_check_route_through_kernel;
          QCheck_alcotest.to_alcotest prop_kernel_equiv_reference;
          Alcotest.test_case "edge moduli, extreme chunks" `Quick test_edge_moduli_and_chunks;
          QCheck_alcotest.to_alcotest prop_kernel_any_modulus;
          Alcotest.test_case "out-of-range moduli rejected" `Quick test_rejects_bad_moduli;
        ] );
      ( "sizing",
        [
          Alcotest.test_case "residues_needed clamp value" `Quick test_residues_needed_clamp_value;
          Alcotest.test_case "residues_needed monotone, >= 1" `Quick
            test_residues_needed_monotone_and_positive;
          QCheck_alcotest.to_alcotest prop_size_bytes_pins_encoding;
        ] );
    ]
