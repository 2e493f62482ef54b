(* Tests for the foundation utilities: PRNG, codec, stats, collections. *)

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---- Prng ---- *)

let test_prng_deterministic () =
  let a = Util.Prng.create 42 in
  let b = Util.Prng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Util.Prng.bits64 a) (Util.Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Util.Prng.create 1 in
  let b = Util.Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Util.Prng.bits64 a = Util.Prng.bits64 b then incr same
  done;
  checkb "streams differ" true (!same < 4)

let test_prng_int_bounds () =
  let rng = Util.Prng.create 7 in
  for _ = 1 to 10_000 do
    let v = Util.Prng.int rng 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_in () =
  let rng = Util.Prng.create 8 in
  for _ = 1 to 1000 do
    let v = Util.Prng.int_in rng (-5) 5 in
    checkb "in range" true (v >= -5 && v <= 5)
  done

let test_prng_int_rejects_bad () =
  let rng = Util.Prng.create 9 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Util.Prng.int rng 0))

let test_prng_uniformity () =
  (* chi-square-ish sanity: 10 buckets, 10k draws, each bucket within 30%. *)
  let rng = Util.Prng.create 123 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Util.Prng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter (fun c -> checkb "bucket balance" true (c > 700 && c < 1300)) buckets

let test_prng_float_range () =
  let rng = Util.Prng.create 10 in
  for _ = 1 to 10_000 do
    let f = Util.Prng.float rng in
    checkb "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_prng_bernoulli_bias () =
  let rng = Util.Prng.create 11 in
  let count = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    if Util.Prng.bernoulli rng 0.3 then incr count
  done;
  let rate = float_of_int !count /. float_of_int trials in
  checkb "bias close to 0.3" true (abs_float (rate -. 0.3) < 0.02)

let test_prng_bernoulli_extremes () =
  let rng = Util.Prng.create 12 in
  checkb "p=0 never" false (Util.Prng.bernoulli rng 0.0);
  checkb "p=1 always" true (Util.Prng.bernoulli rng 1.0);
  checkb "p<0 never" false (Util.Prng.bernoulli rng (-1.0));
  checkb "p>1 always" true (Util.Prng.bernoulli rng 2.0)

let test_prng_split_independent () =
  let a = Util.Prng.create 42 in
  let b = Util.Prng.split a in
  let c = Util.Prng.split a in
  checkb "split streams differ" true (Util.Prng.bits64 b <> Util.Prng.bits64 c)

let test_prng_copy () =
  let a = Util.Prng.create 5 in
  ignore (Util.Prng.bits64 a);
  let b = Util.Prng.copy a in
  check Alcotest.int64 "copy continues identically" (Util.Prng.bits64 a) (Util.Prng.bits64 b)

(* ---- Prng.derive: keyed substreams ---- *)

(* Draw [n] words in a defined order (List.init's application order is
   unspecified). *)
let draws rng n =
  let rec go acc i = if i = 0 then List.rev acc else go (Util.Prng.bits64 rng :: acc) (i - 1) in
  go [] n

let derive_prefix rng ~key = draws (Util.Prng.derive rng ~key) 4

let prop_derive_order_independent =
  QCheck.Test.make ~count:200 ~name:"derive: child streams independent of derivation order"
    QCheck.(pair small_nat (list_of_size Gen.(int_range 1 8) small_nat))
    (fun (seed, keys) ->
      let keys = List.sort_uniq compare keys in
      let rng = Util.Prng.create seed in
      let forward = List.map (fun k -> (k, derive_prefix rng ~key:k)) keys in
      let rng' = Util.Prng.create seed in
      let backward = List.map (fun k -> (k, derive_prefix rng' ~key:k)) (List.rev keys) in
      List.for_all (fun (k, prefix) -> List.assoc k backward = prefix) forward)

let prop_derive_distinct_keys =
  QCheck.Test.make ~count:200 ~name:"derive: distinct keys give distinct prefixes"
    QCheck.(triple small_nat small_nat small_nat)
    (fun (seed, k1, k2) ->
      QCheck.assume (k1 <> k2);
      let rng = Util.Prng.create seed in
      derive_prefix rng ~key:k1 <> derive_prefix rng ~key:k2)

let prop_derive_parent_untouched =
  QCheck.Test.make ~count:200 ~name:"derive: parent stream position unaffected"
    QCheck.(pair small_nat (list small_nat))
    (fun (seed, keys) ->
      let a = Util.Prng.create seed in
      let b = Util.Prng.create seed in
      List.iter (fun k -> ignore (Util.Prng.derive b ~key:k)) keys;
      draws a 8 = draws b 8)

(* ---- Prng limb arithmetic vs straight Int64 reference ----

   lib/util/prng.ml computes SplitMix64/Xoshiro256** on 32-bit native-int
   limbs to avoid Int64 boxing.  This reference implementation is the
   textbook Int64 version; the property pins the limb code word-for-word
   against it across seeding, the main stream, and keyed derivation. *)
module Prng_ref = struct
  type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

  let splitmix_next (state : int64 ref) : int64 =
    let open Int64 in
    state := add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let of_seed64 (seed : int64) : t =
    let st = ref seed in
    let s0 = splitmix_next st in
    let s1 = splitmix_next st in
    let s2 = splitmix_next st in
    let s3 = splitmix_next st in
    if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
      { s0 = 1L; s1 = 2L; s2 = 3L; s3 = 4L }
    else { s0; s1; s2; s3 }

  let create seed = of_seed64 (Int64.of_int seed)

  let rotl (x : int64) (k : int) : int64 =
    Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

  let bits64 t =
    let open Int64 in
    let result = mul (rotl (mul t.s1 5L) 7) 9L in
    let tmp = shift_left t.s1 17 in
    t.s2 <- logxor t.s2 t.s0;
    t.s3 <- logxor t.s3 t.s1;
    t.s1 <- logxor t.s1 t.s2;
    t.s0 <- logxor t.s0 t.s3;
    t.s2 <- logxor t.s2 tmp;
    t.s3 <- rotl t.s3 45;
    result

  let derive t ~key =
    let open Int64 in
    let digest =
      logxor (logxor t.s0 (rotl t.s1 17)) (logxor (rotl t.s2 31) (rotl t.s3 47))
    in
    let st = ref (logxor digest (of_int key)) in
    let seed = logxor (splitmix_next st) (splitmix_next st) in
    of_seed64 seed

  (* Rejection sampling on the top 62 bits of each word, as a recursive
     function; [rejections] counts the words thrown away. *)
  let rejections = ref 0

  let int t bound =
    let mask = 0x3FFF_FFFF_FFFF_FFFF in
    let rec go () =
      let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
      let v = r mod bound in
      if r - v > mask - bound + 1 then begin
        incr rejections;
        go ()
      end
      else v
    in
    go ()
end

let prop_prng_matches_int64_reference =
  QCheck.Test.make ~count:300 ~name:"prng: limb arithmetic = Int64 reference"
    QCheck.(triple int small_nat small_nat)
    (fun (seed, nsteps, key) ->
      let a = Util.Prng.create seed in
      let r = Prng_ref.create seed in
      let ok = ref true in
      for _ = 0 to nsteps do
        if Util.Prng.bits64 a <> Prng_ref.bits64 r then ok := false
      done;
      (* Keyed derivation from the advanced state, then its stream. *)
      let da = Util.Prng.derive a ~key and dr = Prng_ref.derive r ~key in
      for _ = 0 to 7 do
        if Util.Prng.bits64 da <> Prng_ref.bits64 dr then ok := false
      done;
      (* Negative keys exercise the sign-extended key fold. *)
      let da' = Util.Prng.derive a ~key:(-key - 1) and dr' = Prng_ref.derive r ~key:(-key - 1) in
      !ok && Util.Prng.bits64 da' = Prng_ref.bits64 dr')

(* Bounds of every size, including those at and above 2^61, where a
   large share of 62-bit words is rejected; after the draws both streams
   must also sit at the same position. *)
let prop_prng_int_matches_reference =
  let bound =
    QCheck.Gen.(
      oneof
        [ int_range 1 1000;
          int_range 1 max_int;
          oneofl [ 1; 2; max_int; max_int - 1; 1 lsl 61; (1 lsl 61) + 1; 3 lsl 60 ];
          map (fun k -> (1 lsl 61) + k) (int_bound ((1 lsl 61) - 1))
        ])
  in
  QCheck.Test.make ~count:300 ~name:"prng: int = top-62-bit rejection reference"
    QCheck.(pair int (make ~print:Print.(list int) (Gen.list_size (Gen.int_range 1 40) bound)))
    (fun (seed, bounds) ->
      let a = Util.Prng.create seed and r = Prng_ref.create seed in
      List.for_all (fun b -> Util.Prng.int a b = Prng_ref.int r b) bounds
      && Util.Prng.bits64 a = Prng_ref.bits64 r)

let test_prng_int_rejection_fires () =
  (* At bound 2^61 + 1 about half the words are rejected, so 64 draws
     without one would be a 2^-64 event: the pinned path is exercised. *)
  let a = Util.Prng.create 5 and r = Prng_ref.create 5 in
  let before = !Prng_ref.rejections in
  for _ = 1 to 64 do
    checki "draw" (Prng_ref.int r ((1 lsl 61) + 1)) (Util.Prng.int a ((1 lsl 61) + 1))
  done;
  checkb "rejections happened" true (!Prng_ref.rejections > before)

let test_sample_without_replacement () =
  let rng = Util.Prng.create 13 in
  for k = 0 to 20 do
    let s = Util.Prng.sample_without_replacement rng ~n:20 ~k in
    checki "size" k (List.length s);
    checki "distinct" k (List.length (List.sort_uniq compare s));
    List.iter (fun v -> checkb "range" true (v >= 0 && v < 20)) s;
    checkb "sorted" true (List.sort compare s = s)
  done

let test_sample_covers_everything () =
  let rng = Util.Prng.create 14 in
  let s = Util.Prng.sample_without_replacement rng ~n:5 ~k:5 in
  check Alcotest.(list int) "full sample" [ 0; 1; 2; 3; 4 ] s

let test_shuffle_permutation () =
  let rng = Util.Prng.create 15 in
  let arr = Array.init 50 (fun i -> i) in
  Util.Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Alcotest.(array int) "still a permutation" (Array.init 50 (fun i -> i)) sorted

let test_subset_bernoulli () =
  let rng = Util.Prng.create 16 in
  let s = Util.Prng.subset_bernoulli rng ~n:1000 ~p:0.2 in
  let len = List.length s in
  checkb "rough size" true (len > 140 && len < 270);
  checkb "sorted distinct" true (List.sort_uniq compare s = s)

(* ---- Codec ---- *)

let test_codec_varint_roundtrip () =
  List.iter
    (fun v ->
      let b = Util.Codec.encode (fun w -> Util.Codec.write_varint w) v in
      checki (Printf.sprintf "varint %d" v) v (Util.Codec.decode (fun r -> Util.Codec.read_varint r) b))
    [ 0; 1; 127; 128; 255; 256; 16383; 16384; 1 lsl 30; max_int ]

let test_codec_varint_size () =
  checki "1 byte" 1 (Util.Codec.varint_size 127);
  checki "2 bytes" 2 (Util.Codec.varint_size 128);
  checki "2 bytes" 2 (Util.Codec.varint_size 16383);
  checki "3 bytes" 3 (Util.Codec.varint_size 16384)

let test_codec_compound () =
  let value = ([ (1, "a"); (2, "bb"); (300, "") ], Some (Bytes.of_string "xyz")) in
  let enc w (lst, opt) =
    Util.Codec.write_list w
      (fun w (i, s) ->
        Util.Codec.write_varint w i;
        Util.Codec.write_string w s)
      lst;
    Util.Codec.write_option w Util.Codec.write_bytes opt
  in
  let b = Util.Codec.encode enc value in
  let lst, opt =
    Util.Codec.decode
      (fun r ->
        let lst =
          Util.Codec.read_list r (fun r ->
              let i = Util.Codec.read_varint r in
              let s = Util.Codec.read_string r in
              (i, s))
        in
        let opt = Util.Codec.read_option r Util.Codec.read_bytes in
        (lst, opt))
      b
  in
  checkb "list" true (lst = fst value);
  checkb "option" true (opt = snd value)

let test_codec_trailing_bytes_rejected () =
  let b = Bytes.of_string "\001\002" in
  Alcotest.check_raises "trailing"
    (Util.Codec.Decode_error "1 trailing bytes at offset 1 (window ends at 2)") (fun () ->
      ignore (Util.Codec.decode (fun r -> Util.Codec.read_byte r) b))

(* Decode errors carry the failing offset and the expected/actual byte
   counts, so a malformed message is debuggable from the error alone. *)
let test_codec_error_offsets () =
  let msg f =
    try
      ignore (f ());
      Alcotest.fail "expected Decode_error"
    with Util.Codec.Decode_error m -> m
  in
  (* Underflow: 3 bytes wanted at offset 1 of a 2-byte buffer. *)
  let m =
    msg (fun () ->
        Util.Codec.decode
          (fun r ->
            ignore (Util.Codec.read_byte r);
            Util.Codec.read_raw r 3)
          (Bytes.of_string "\001\002"))
  in
  checkb "underflow names offset" true
    (m = "need 3 bytes at offset 1, but only 1 remain (window ends at 2)");
  (* Unterminated varint: ten continuation bytes. *)
  let m =
    msg (fun () -> Util.Codec.decode Util.Codec.read_varint (Bytes.make 10 '\xff'))
  in
  checkb "varint names start offset" true
    (m = "varint at offset 0 too long (10th continuation byte at offset 9)");
  (* Bad bool byte, not at offset 0. *)
  let m =
    msg (fun () ->
        Util.Codec.decode
          (fun r ->
            ignore (Util.Codec.read_byte r);
            Util.Codec.read_bool r)
          (Bytes.of_string "\000\007"))
  in
  checkb "bool names offset" true (m = "bad bool byte 7 at offset 1")

(* A claimed length near [max_int], or a negative one, is a Decode_error
   at any offset.  The bounds check once added the length to the cursor,
   which wraps negative: the copying readers then raised Invalid_argument
   from [Bytes.sub], and [read_bytes_view] returned a view at a negative
   offset.  A negative list or array count once passed the count check
   and raised Invalid_argument from [List.init]/[Array.init].  [read_raw]
   takes the length as an argument at the given cursor offset; the
   others read it as a varint starting there. *)
let test_codec_huge_lengths () =
  let readers =
    [
      ("read_raw", fun r len -> ignore (Util.Codec.read_raw r len));
      ("read_bytes", fun r _ -> ignore (Util.Codec.read_bytes r));
      ("read_string", fun r _ -> ignore (Util.Codec.read_string r));
      ("read_bytes_view", fun r _ -> ignore (Util.Codec.read_bytes_view r));
      ("read_list", fun r _ -> ignore (Util.Codec.read_list r Util.Codec.read_byte));
      ("read_array", fun r _ -> ignore (Util.Codec.read_array r Util.Codec.read_byte));
    ]
  in
  List.iter
    (fun (name, read) ->
      List.iter
        (fun offset ->
          List.iter
            (fun len ->
              let buf =
                Util.Codec.encode
                  (fun w len ->
                    for _ = 1 to offset do
                      Util.Codec.write_byte w 0
                    done;
                    Util.Codec.write_varint w len;
                    Util.Codec.write_raw w (Bytes.make 4 'x'))
                  len
              in
              let r = Util.Codec.reader buf in
              for _ = 1 to offset do
                ignore (Util.Codec.read_byte r)
              done;
              checkb
                (Printf.sprintf "%s at offset %d, length %d" name offset len)
                true
                (try
                   read r len;
                   false
                 with Util.Codec.Decode_error _ -> true))
            [ max_int; max_int - 5; -1; min_int ])
        [ 0; 1 ])
    readers

let test_codec_underflow_rejected () =
  let b = Bytes.of_string "" in
  checkb "raises" true
    (try
       ignore (Util.Codec.decode (fun r -> Util.Codec.read_byte r) b);
       false
     with Util.Codec.Decode_error _ -> true)

let test_codec_int_list () =
  let lst = [ 5; 0; 99; 1000000 ] in
  check Alcotest.(list int) "int list" lst (Util.Codec.decode_int_list (Util.Codec.encode_int_list lst))

let codec_prop_bytes =
  QCheck.Test.make ~name:"codec bytes roundtrip" ~count:500
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s ->
      let b = Bytes.of_string s in
      let enc = Util.Codec.encode (fun w -> Util.Codec.write_bytes w) b in
      Bytes.equal b (Util.Codec.decode (fun r -> Util.Codec.read_bytes r) enc))

let codec_prop_varint_list =
  QCheck.Test.make ~name:"codec int list roundtrip" ~count:500
    QCheck.(list (int_bound 1_000_000))
    (fun lst -> Util.Codec.decode_int_list (Util.Codec.encode_int_list lst) = lst)

(* ---- Varint kernels against recursive references ---- *)

module Varint_ref = struct
  let write buf v =
    let rec go v =
      let low = v land 0x7F and rest = v lsr 7 in
      if rest = 0 then Buffer.add_char buf (Char.chr low)
      else begin
        Buffer.add_char buf (Char.chr (low lor 0x80));
        go rest
      end
    in
    go v

  (* [read b] is [Ok (value, next offset)] or [Error message] for the
     varint at the start of [b], the message [Codec.Decode_error] must
     carry. *)
  let read b =
    let limit = Bytes.length b in
    let rec go shift acc p =
      if shift > 62 then
        Error (Printf.sprintf "varint at offset 0 too long (10th continuation byte at offset %d)" p)
      else if p >= limit then
        Error
          (Printf.sprintf "need 1 bytes at offset %d, but only %d remain (window ends at %d)" p
             (limit - p) limit)
      else
        let byte = Char.code (Bytes.get b p) in
        let acc = acc lor ((byte land 0x7F) lsl shift) in
        if byte land 0x80 = 0 then Ok (acc, p + 1) else go (shift + 7) acc (p + 1)
    in
    go 0 0 0
end

let gen_any_int =
  QCheck.Gen.(
    oneof
      [ int;
        small_signed_int;
        oneofl [ min_int; max_int; -1; 0; 127; 128; (1 lsl 56) - 1; 1 lsl 56; -(1 lsl 56) ]
      ])

let codec_prop_varint_write_reference =
  QCheck.Test.make ~count:1000 ~name:"codec: write_varint = recursive reference, <= 9 bytes"
    (QCheck.make ~print:string_of_int gen_any_int)
    (fun v ->
      let buf = Buffer.create 16 in
      Varint_ref.write buf v;
      (* Into a writer that already holds (and has grown past) content. *)
      let w = Util.Codec.writer () in
      Util.Codec.write_raw w (Bytes.make 100 'x');
      Util.Codec.write_varint w v;
      let enc = Util.Codec.contents w in
      let enc = Bytes.sub_string enc 100 (Bytes.length enc - 100) in
      enc = Buffer.contents buf
      && String.length enc <= 9
      && String.length enc = Util.Codec.varint_size v)

(* Input for the reader: random bytes, truncated encodings, and runs of
   continuation bytes around the nine-byte limit. *)
let gen_varint_input =
  QCheck.Gen.(
    let continuation = map (fun c -> Char.chr (Char.code c lor 0x80)) char in
    oneof
      [ string_size (int_bound 12);
        ( gen_any_int >>= fun v ->
          let buf = Buffer.create 16 in
          Varint_ref.write buf v;
          let s = Buffer.contents buf in
          int_bound (String.length s) >|= fun cut -> String.sub s 0 cut );
        ( int_range 8 11 >>= fun k ->
          string_size ~gen:continuation (return k) >>= fun run ->
          string_size (int_bound 2) >|= fun tail -> run ^ tail )
      ])

let codec_prop_varint_read_reference =
  QCheck.Test.make ~count:1000 ~name:"codec: read_varint = recursive reference, error for error"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_varint_input)
    (fun body ->
      let b = Bytes.of_string body in
      let r = Util.Codec.reader b in
      let got =
        match Util.Codec.read_varint r with
        | v -> Ok (v, Util.Codec.pos r)
        | exception Util.Codec.Decode_error m -> Error m
      in
      got = Varint_ref.read b)

(* The per-pair kernels of the equality round allocate nothing: 10^5
   calls each stay under 0.01 minor words per call (the allowance covers
   the measurement's own boxed floats and reader record). *)
let test_kernels_allocation_free () =
  let calls = 100_000 in
  let per_call name f =
    let before = Gc.minor_words () in
    f ();
    let words = (Gc.minor_words () -. before) /. float_of_int calls in
    checkb (Printf.sprintf "%s: %.4f words/call < 0.01" name words) true (words < 0.01)
  in
  let w = Util.Codec.writer () in
  let write_all () =
    for i = 1 to calls do
      Util.Codec.write_varint w ((i * 0x9E3779B9) - (1 lsl 40))
    done
  in
  write_all ();
  let encoded = Util.Codec.contents w in
  Util.Codec.reset w;
  per_call "write_varint" write_all;
  let sum = ref 0 in
  per_call "read_varint" (fun () ->
      let r = Util.Codec.reader encoded in
      for _ = 1 to calls do
        sum := !sum + Util.Codec.read_varint r
      done);
  let rng = Util.Prng.create 3 in
  per_call "Prng.int" (fun () ->
      for i = 1 to calls do
        sum := !sum + Util.Prng.int rng (1 + (i land 0xFFFF))
      done);
  checkb "kernels ran" true (!sum <> 0)

(* ---- Zero-copy views ---- *)

let codec_prop_views_equiv =
  QCheck.Test.make ~name:"view reads = copying reads; views round-trip" ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 80)) (string_of_size Gen.(0 -- 40)))
    (fun (s1, s2) ->
      let b1 = Bytes.of_string s1 and b2 = Bytes.of_string s2 in
      let enc =
        Util.Codec.encode
          (fun w () ->
            Util.Codec.write_bytes w b1;
            Util.Codec.write_varint w (Bytes.length b2);
            Util.Codec.write_raw w b2)
          ()
      in
      (* Zero-copy pass. *)
      let r = Util.Codec.reader enc in
      let v1 = Util.Codec.read_bytes_view r in
      let n2 = Util.Codec.read_varint r in
      let v2 = Util.Codec.read_raw_view r n2 in
      let ok_contents =
        Bytes.equal (Util.Codec.view_to_bytes v1) b1
        && Bytes.equal (Util.Codec.view_to_bytes v2) b2
        && Util.Codec.view_equal_bytes v1 b1
        && Util.Codec.view_equal_bytes v2 b2
        && (Bytes.length b1 = Bytes.length b2 || not (Util.Codec.view_equal_bytes v1 b2))
      in
      ok_contents && Util.Codec.at_end r)

(* ---- sample_array ≡ the Hashtbl/List.sort sampler ---- *)

(* The sampler as it stood before [sample_array]: a shuffled prefix,
   sorted, when [2k >= n]; otherwise rejection sampling into a hash set,
   folded to a list and sorted. *)
let sample_ref t ~n ~k =
  if k = 0 then []
  else if 2 * k >= n then begin
    let arr = Array.init n (fun i -> i) in
    Util.Prng.shuffle t arr;
    Array.sub arr 0 k |> Array.to_list |> List.sort compare
  end
  else begin
    let seen = Hashtbl.create (2 * k) in
    let rec fill count =
      if count = k then ()
      else
        let v = Util.Prng.int t n in
        if Hashtbl.mem seen v then fill count
        else begin
          Hashtbl.add seen v ();
          fill (count + 1)
        end
    in
    fill 0;
    Hashtbl.fold (fun v () acc -> v :: acc) seen [] |> List.sort compare
  end

(* n in [1, 2000], k in [0, n]: half the cases take the rejection path
   (2k < n), half the shuffle. *)
let gen_sample_size =
  QCheck.Gen.(int_range 1 2000 >>= fun n -> map (fun k -> (n, k)) (int_bound n))

let prop_sample_matches_reference =
  QCheck.Test.make ~count:600 ~name:"sample_array/sample_without_replacement = reference sampler"
    (QCheck.make QCheck.Gen.(pair small_nat gen_sample_size))
    (fun (seed, (n, k)) ->
      let r_ref = Util.Prng.create seed
      and r_arr = Util.Prng.create seed
      and r_list = Util.Prng.create seed in
      let expected = sample_ref r_ref ~n ~k in
      Array.to_list (Util.Prng.sample_array r_arr ~n ~k) = expected
      && Util.Prng.sample_without_replacement r_list ~n ~k = expected
      (* The same draws consumed: the next draw agrees on all three. *)
      && (let next = Util.Prng.int r_ref 1_000_000 in
          Util.Prng.int r_arr 1_000_000 = next && Util.Prng.int r_list 1_000_000 = next))

(* k = 200,000 of n = 400,001 takes the rejection path with k near n/2:
   an insertion that shifts the held values per draw (O(k^2), ~10^10
   moves) would not finish. *)
let test_sample_large_rejection () =
  let a = Util.Prng.create 21 and r = Util.Prng.create 21 in
  let got = Util.Prng.sample_array a ~n:400_001 ~k:200_000 in
  let expected = sample_ref r ~n:400_001 ~k:200_000 in
  checkb "same values" true (Array.to_list got = expected);
  checki "same next draw" (Util.Prng.int r 1_000_000) (Util.Prng.int a 1_000_000)

(* ---- sample_into ≡ sample_without_replacement ---- *)

let prop_sample_into_matches_list =
  QCheck.Test.make ~name:"sample_into = sample_without_replacement (draws and result)"
    ~count:500
    (QCheck.make QCheck.Gen.(pair small_nat gen_sample_size))
    (fun (seed, (n, k)) ->
      let r_list = Util.Prng.create (0x5A + seed) in
      let r_into = Util.Prng.create (0x5A + seed) in
      let expected = Util.Prng.sample_without_replacement r_list ~n ~k in
      let pos = 3 in
      let dst = Array.make (pos + k + 2) (-1) in
      let scratch = Array.make (max n 1) 0 in
      Util.Prng.sample_into r_into ~n ~k ~scratch ~dst ~pos;
      let got = Array.to_list (Array.sub dst pos k) in
      (* Identical draws consumed: the two streams must stay in lockstep. *)
      got = expected
      && Util.Prng.int r_list 1_000_000 = Util.Prng.int r_into 1_000_000
      && dst.(0) = -1
      && dst.(pos + k) = -1)

(* ---- Stats ---- *)

let feq ?(eps = 1e-9) a b = abs_float (a -. b) < eps

let test_stats_mean_var () =
  checkb "mean" true (feq (Util.Stats.mean [ 1.0; 2.0; 3.0 ]) 2.0);
  checkb "variance" true (feq (Util.Stats.variance [ 1.0; 2.0; 3.0 ]) (2.0 /. 3.0));
  checkb "stddev" true (feq (Util.Stats.stddev [ 5.0; 5.0 ]) 0.0)

let test_stats_median_percentile () =
  checkb "odd median" true (feq (Util.Stats.median [ 3.0; 1.0; 2.0 ]) 2.0);
  checkb "even median" true (feq (Util.Stats.median [ 4.0; 1.0; 2.0; 3.0 ]) 2.5);
  checkb "p0" true (feq (Util.Stats.percentile [ 1.0; 2.0; 3.0 ] 0.0) 1.0);
  checkb "p100" true (feq (Util.Stats.percentile [ 1.0; 2.0; 3.0 ] 100.0) 3.0);
  checkb "p50" true (feq (Util.Stats.percentile [ 1.0; 2.0; 3.0 ] 50.0) 2.0)

let test_stats_linear_fit () =
  let slope, intercept, r2 = Util.Stats.linear_fit [ (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) ] in
  checkb "slope" true (feq slope 2.0);
  checkb "intercept" true (feq intercept 1.0);
  checkb "r2 perfect" true (feq r2 1.0)

let test_stats_loglog () =
  (* y = 3 x^2 exactly. *)
  let pts = List.map (fun x -> (float_of_int x, 3.0 *. float_of_int (x * x))) [ 1; 2; 4; 8; 16 ] in
  let k, c, r2 = Util.Stats.loglog_exponent pts in
  checkb "exponent 2" true (feq ~eps:1e-6 k 2.0);
  checkb "constant 3" true (feq ~eps:1e-6 c 3.0);
  checkb "r2" true (feq ~eps:1e-6 r2 1.0)

let test_stats_loglog_rejects_nonpositive () =
  checkb "raises" true
    (try
       ignore (Util.Stats.loglog_exponent [ (0.0, 1.0); (1.0, 2.0) ]);
       false
     with Invalid_argument _ -> true)

let test_stats_binomial_ci () =
  let lo, hi = Util.Stats.binomial_ci ~successes:50 ~trials:100 in
  checkb "contains p" true (lo < 0.5 && 0.5 < hi);
  checkb "sane width" true (hi -. lo < 0.25);
  let lo0, _ = Util.Stats.binomial_ci ~successes:0 ~trials:100 in
  checkb "zero successes lo=0" true (feq lo0 0.0)

let test_stats_histogram () =
  let h = Util.Stats.histogram [ 0.0; 0.5; 1.0; 1.5; 2.0 ] ~bins:2 in
  checki "bins" 2 (List.length h);
  checki "total count" 5 (List.fold_left (fun a (_, c) -> a + c) 0 h)

(* ---- Iset / Intset ---- *)

(* Ids spanning the whole usable range: dense protocol-scale ids, giant-
   tier party ids (10^5..10^6), and near-max outliers.  The network
   keeps its per-party peer sets over such ids, so membership and
   iteration must not degrade or collide far outside the dense range. *)
let gen_sparse_ids =
  QCheck.Gen.(
    list_size (int_bound 120)
      (oneof
         [
           int_bound 50;
           map (fun k -> 100_000 + k) (int_bound 1_000_000);
           map (fun k -> (1 lsl 50) + k) (int_bound 1000);
         ]))

module Int_set_ref = Set.Make (Int)

let prop_intset_matches_reference =
  QCheck.Test.make ~count:300 ~name:"Intset: add/mem/cardinal/iteration match Set"
    (QCheck.make gen_sparse_ids)
    (fun ids ->
      let t = Util.Intset.create () in
      List.iter (Util.Intset.add t) ids;
      let reference = Int_set_ref.of_list ids in
      Util.Intset.cardinal t = Int_set_ref.cardinal reference
      && Util.Intset.to_sorted_list t = Int_set_ref.elements reference
      && List.for_all (fun v -> Util.Intset.mem t v) ids
      && (not (Util.Intset.mem t (-1)))
      && List.sort compare (Util.Intset.fold (fun v acc -> v :: acc) t [])
         = Int_set_ref.elements reference
      && Util.Iset.to_sorted_list (Util.Intset.to_iset t) = Int_set_ref.elements reference)

let test_intset_negative_rejected () =
  let t = Util.Intset.create () in
  (try
     Util.Intset.add t (-3);
     Alcotest.fail "negative add must raise"
   with Invalid_argument _ -> ());
  checkb "mem of negative" false (Util.Intset.mem t (-3))

let test_intset_sequential_growth () =
  (* Sequential ids are the worst case for a weak hash (one clustered
     probe run); 10^4 of them must stay exact through many doublings. *)
  let t = Util.Intset.create () in
  for v = 0 to 9_999 do
    Util.Intset.add t v;
    Util.Intset.add t v
  done;
  checki "cardinal after dups" 10_000 (Util.Intset.cardinal t);
  checkb "all present" true
    (List.for_all (fun v -> Util.Intset.mem t v) (List.init 10_000 Fun.id));
  checkb "absent stays absent" false (Util.Intset.mem t 10_000)

let test_intset_reserve () =
  (* A reserved table takes its elements without growing again; the
     elements and their count are those of plain adds. *)
  let size t = Obj.reachable_words (Obj.repr t) in
  let t = Util.Intset.create () in
  Util.Intset.add t 5;
  Util.Intset.reserve t 100;
  let reserved = size t in
  for v = 0 to 99 do
    Util.Intset.add t (v * 7919)
  done;
  checki "no growth after reserve" reserved (size t);
  checki "cardinal" 101 (Util.Intset.cardinal t);
  checkb "members" true (List.for_all (Util.Intset.mem t) (5 :: List.init 100 (fun v -> v * 7919)));
  Util.Intset.reserve t 10;
  checki "smaller reserve is a no-op" reserved (size t);
  let c = Util.Intset.create ~capacity:100 () in
  let sized = size c in
  for v = 1 to 100 do
    Util.Intset.add c v
  done;
  checki "create ~capacity holds that many" sized (size c)

let prop_iset_large_ids =
  QCheck.Test.make ~count:200 ~name:"Iset: union/inter/mem at ids >> 10^5"
    (QCheck.make QCheck.Gen.(pair gen_sparse_ids gen_sparse_ids))
    (fun (a, b) ->
      let sa = Util.Iset.of_list a and sb = Util.Iset.of_list b in
      let u = Util.Iset.union sa sb and i = Util.Iset.inter sa sb in
      List.for_all (fun v -> Util.Iset.mem v u) (a @ b)
      && Util.Iset.for_all (fun v -> Util.Iset.mem v sa && Util.Iset.mem v sb) i
      && (let l = Util.Iset.to_sorted_list u in
          l = List.sort_uniq compare (a @ b)))

let test_iset_range () =
  check Alcotest.(list int) "range" [ 2; 3; 4 ] (Util.Iset.to_sorted_list (Util.Iset.range 2 4));
  checkb "empty range" true (Util.Iset.is_empty (Util.Iset.range 4 2))

(* ---- Pool lifecycle (the scheduling semantics live in test_pool.ml) ---- *)

let map_jobs_raises p =
  try
    ignore (Util.Pool.map_jobs p [| 1 |] (fun x -> x));
    false
  with Invalid_argument _ -> true

let test_pool_shutdown_idempotent () =
  let p = Util.Pool.create ~num_domains:2 () in
  checki "pool works before shutdown" 6
    (Array.fold_left ( + ) 0 (Util.Pool.map_jobs p [| 1; 2; 3 |] (fun x -> x)));
  (* Documented idempotent: repeated shutdowns must neither raise nor hang. *)
  Util.Pool.shutdown p;
  Util.Pool.shutdown p;
  Util.Pool.shutdown p

let test_pool_use_after_shutdown_raises () =
  let p = Util.Pool.create ~num_domains:1 () in
  Util.Pool.shutdown p;
  checkb "map_jobs after shutdown raises" true (map_jobs_raises p);
  (* A redundant shutdown must not resurrect the pool. *)
  Util.Pool.shutdown p;
  checkb "map_jobs still raises after double shutdown" true (map_jobs_raises p);
  checkb "and keeps raising" true (map_jobs_raises p)

let test_pool_zero_domains_shutdown () =
  (* The degenerate sequential pool follows the same lifecycle contract. *)
  let p = Util.Pool.create ~num_domains:0 () in
  checki "inline map works" 2
    (Array.fold_left ( + ) 0 (Util.Pool.map_jobs p [| 1 |] (fun x -> x + 1)));
  Util.Pool.shutdown p;
  Util.Pool.shutdown p;
  checkb "map_jobs after shutdown raises" true (map_jobs_raises p)

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_prng_int_in;
          Alcotest.test_case "int rejects bad bound" `Quick test_prng_int_rejects_bad;
          Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "bernoulli bias" `Quick test_prng_bernoulli_bias;
          Alcotest.test_case "bernoulli extremes" `Quick test_prng_bernoulli_extremes;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          QCheck_alcotest.to_alcotest prop_derive_order_independent;
          QCheck_alcotest.to_alcotest prop_derive_distinct_keys;
          QCheck_alcotest.to_alcotest prop_derive_parent_untouched;
          QCheck_alcotest.to_alcotest prop_prng_matches_int64_reference;
          QCheck_alcotest.to_alcotest prop_prng_int_matches_reference;
          Alcotest.test_case "int rejection pinned" `Quick test_prng_int_rejection_fires;
          QCheck_alcotest.to_alcotest prop_sample_matches_reference;
          Alcotest.test_case "sample k=200000 of 400001" `Quick test_sample_large_rejection;
          QCheck_alcotest.to_alcotest prop_sample_into_matches_list;
          Alcotest.test_case "sample w/o replacement" `Quick test_sample_without_replacement;
          Alcotest.test_case "sample covers all" `Quick test_sample_covers_everything;
          Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "subset bernoulli" `Quick test_subset_bernoulli;
        ] );
      ( "codec",
        [
          Alcotest.test_case "varint roundtrip" `Quick test_codec_varint_roundtrip;
          Alcotest.test_case "varint size" `Quick test_codec_varint_size;
          Alcotest.test_case "compound structures" `Quick test_codec_compound;
          Alcotest.test_case "trailing bytes rejected" `Quick test_codec_trailing_bytes_rejected;
          Alcotest.test_case "underflow rejected" `Quick test_codec_underflow_rejected;
          Alcotest.test_case "huge lengths rejected" `Quick test_codec_huge_lengths;
          Alcotest.test_case "error offsets" `Quick test_codec_error_offsets;
          Alcotest.test_case "int list helper" `Quick test_codec_int_list;
          QCheck_alcotest.to_alcotest codec_prop_bytes;
          QCheck_alcotest.to_alcotest codec_prop_varint_list;
          QCheck_alcotest.to_alcotest codec_prop_varint_write_reference;
          QCheck_alcotest.to_alcotest codec_prop_varint_read_reference;
          Alcotest.test_case "kernels allocation-free" `Quick test_kernels_allocation_free;
          QCheck_alcotest.to_alcotest codec_prop_views_equiv;
        ] );
      ( "pool",
        [
          Alcotest.test_case "shutdown idempotent" `Quick test_pool_shutdown_idempotent;
          Alcotest.test_case "use after shutdown raises" `Quick test_pool_use_after_shutdown_raises;
          Alcotest.test_case "zero-domain lifecycle" `Quick test_pool_zero_domains_shutdown;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/variance" `Quick test_stats_mean_var;
          Alcotest.test_case "median/percentile" `Quick test_stats_median_percentile;
          Alcotest.test_case "linear fit" `Quick test_stats_linear_fit;
          Alcotest.test_case "loglog exponent" `Quick test_stats_loglog;
          Alcotest.test_case "loglog rejects nonpositive" `Quick test_stats_loglog_rejects_nonpositive;
          Alcotest.test_case "binomial CI" `Quick test_stats_binomial_ci;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
        ] );
      ( "collections",
        [
          Alcotest.test_case "iset range" `Quick test_iset_range;
          QCheck_alcotest.to_alcotest prop_intset_matches_reference;
          Alcotest.test_case "intset rejects negatives" `Quick test_intset_negative_rejected;
          Alcotest.test_case "intset sequential growth" `Quick test_intset_sequential_growth;
          Alcotest.test_case "intset reserve" `Quick test_intset_reserve;
          QCheck_alcotest.to_alcotest prop_iset_large_ids;
        ] );
    ]
