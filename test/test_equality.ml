(* Tests for Algorithm 1 (Equality_λ) and its pairwise composition. *)

let checkb = Alcotest.(check bool)

let params ?(lambda = 8) n = Mpc.Params.make ~n ~h:(n / 2) ~lambda ~alpha:2 ()

let test_two_party_equal () =
  let net = Netsim.Net.create 4 in
  let rng = Util.Prng.create 1 in
  let m = Bytes.of_string "identical strings here" in
  let f1, f2 = Mpc.Equality.run net rng (params 4) ~p1:0 ~p2:3 ~m1:m ~m2:(Bytes.copy m) in
  checkb "p1 accepts" true f1;
  checkb "p2 accepts" true f2

let test_two_party_unequal () =
  let net = Netsim.Net.create 4 in
  let rng = Util.Prng.create 2 in
  for i = 0 to 20 do
    let m1 = Bytes.of_string (Printf.sprintf "message number %d" i) in
    let m2 = Bytes.of_string (Printf.sprintf "message number %d!" i) in
    let f1, f2 = Mpc.Equality.run net rng (params 4) ~p1:0 ~p2:1 ~m1 ~m2 in
    checkb "p1 rejects" false f1;
    checkb "p2 rejects" false f2
  done

let test_two_party_single_bit_difference () =
  (* The adversarially-hardest case: strings differing in exactly one bit. *)
  let net = Netsim.Net.create 2 in
  let rng = Util.Prng.create 3 in
  let base = Bytes.make 64 'A' in
  for pos = 0 to 63 do
    let m2 = Bytes.copy base in
    Bytes.set m2 pos 'B';
    let f1, f2 = Mpc.Equality.run net rng (params 2) ~p1:0 ~p2:1 ~m1:base ~m2 in
    checkb "detects one-byte diff" false (f1 || f2)
  done

let test_two_party_communication_succinct () =
  (* Lemma 5: O(λ log n) bits regardless of message size. *)
  let net = Netsim.Net.create 2 in
  let rng = Util.Prng.create 4 in
  let big = Bytes.make 100_000 'x' in
  let before = Netsim.Net.total_bits net in
  ignore (Mpc.Equality.run net rng (params 2) ~p1:0 ~p2:1 ~m1:big ~m2:big);
  let bits = Netsim.Net.total_bits net - before in
  checkb "succinct" true (bits < 2048)

let test_pairwise_all_equal () =
  let net = Netsim.Net.create 8 in
  let rng = Util.Prng.create 5 in
  let corruption = Netsim.Corruption.none ~n:8 in
  let verdicts =
    Mpc.Equality.pairwise net rng (params 8) ~members:[ 0; 2; 4; 6 ]
      ~value:(fun _ -> Bytes.of_string "shared view")
      ~corruption ~adv:Mpc.Equality.honest_adv
  in
  List.iter (fun (_, ok) -> checkb "accepts" true ok) verdicts

let test_pairwise_one_outlier () =
  let net = Netsim.Net.create 8 in
  let rng = Util.Prng.create 6 in
  let corruption = Netsim.Corruption.none ~n:8 in
  let verdicts =
    Mpc.Equality.pairwise net rng (params 8) ~members:[ 0; 1; 2; 3 ]
      ~value:(fun i -> Bytes.of_string (if i = 2 then "different" else "same"))
      ~corruption ~adv:Mpc.Equality.honest_adv
  in
  (* Everyone participated in a failing test, so everyone rejects. *)
  List.iter
    (fun (m, ok) -> checkb (Printf.sprintf "member %d rejects" m) false ok)
    verdicts

let test_pairwise_two_camps () =
  let net = Netsim.Net.create 8 in
  let rng = Util.Prng.create 7 in
  let corruption = Netsim.Corruption.none ~n:8 in
  let verdicts =
    Mpc.Equality.pairwise net rng (params 8) ~members:[ 0; 1; 2; 3 ]
      ~value:(fun i -> Bytes.of_string (if i < 2 then "camp A" else "camp B"))
      ~corruption ~adv:Mpc.Equality.honest_adv
  in
  List.iter (fun (_, ok) -> checkb "everyone sees a mismatch" false ok) verdicts

let test_pairwise_tampered_fingerprint () =
  (* A corrupted member sends garbage fingerprints: honest receivers must
     reject (and the corrupted sender cannot make two honest parties with
     different values both accept). *)
  let n = 6 in
  let net = Netsim.Net.create n in
  let rng = Util.Prng.create 8 in
  let corruption = Netsim.Corruption.make ~n ~corrupted:(Util.Iset.of_list [ 0 ]) in
  let adv =
    {
      Mpc.Equality.tamper_fp =
        Some
          (fun ~me:_ ~dst:_ fp ->
            { fp with Crypto.Fingerprint.residues = Array.map (fun r -> r + 1) fp.Crypto.Fingerprint.residues });
      lie_verdict = None;
    }
  in
  let verdicts =
    Mpc.Equality.pairwise net rng (params n) ~members:[ 0; 1; 2 ]
      ~value:(fun _ -> Bytes.of_string "same everywhere")
      ~corruption ~adv
  in
  (* Honest members 1 and 2 reject because 0's fingerprint fails. *)
  List.iter
    (fun (m, ok) ->
      if m <> 0 then checkb (Printf.sprintf "member %d rejects tampering" m) false ok)
    verdicts

let test_pairwise_lying_verdict_cannot_fool_receiver () =
  (* Corrupted member 3 lies "equal" to senders, but honest receivers of
     3's (honest-looking) fingerprints still detect 3's divergent value
     through their own checks of messages 3 sends... here 3 is the highest
     id so it only receives; the lie makes senders accept, but the honest
     receivers that share a pair with each other still agree.  The key
     security property: no two honest parties with DIFFERENT values both
     accept. *)
  let n = 6 in
  let net = Netsim.Net.create n in
  let rng = Util.Prng.create 9 in
  let corruption = Netsim.Corruption.make ~n ~corrupted:(Util.Iset.of_list [ 3 ]) in
  let adv =
    { Mpc.Equality.tamper_fp = None; lie_verdict = Some (fun ~me:_ ~dst:_ _ -> true) }
  in
  let verdicts =
    Mpc.Equality.pairwise net rng (params n) ~members:[ 0; 1; 3 ]
      ~value:(fun i -> Bytes.of_string (if i = 1 then "divergent" else "base"))
      ~corruption ~adv
  in
  (* 0 and 1 hold different values; the 0-1 pair runs honestly, so at least
     one of them rejects. *)
  let ok0 = List.assoc 0 verdicts and ok1 = List.assoc 1 verdicts in
  checkb "honest disagreement detected" false (ok0 && ok1)

let test_pairwise_cost_scales_with_members () =
  let run k =
    let net = Netsim.Net.create 32 in
    let rng = Util.Prng.create 10 in
    let corruption = Netsim.Corruption.none ~n:32 in
    ignore
      (Mpc.Equality.pairwise net rng (params 32)
         ~members:(List.init k (fun i -> i))
         ~value:(fun _ -> Bytes.make 1000 'v')
         ~corruption ~adv:Mpc.Equality.honest_adv);
    Netsim.Net.total_bits net
  in
  let b8 = run 8 and b16 = run 16 in
  (* Quadratic in members: 16 members ≈ 4x the pairs of 8. *)
  let ratio = float_of_int b16 /. float_of_int b8 in
  checkb "quadratic growth" true (ratio > 3.0 && ratio < 5.0)

(* An honest round encodes each distinct fingerprint message once: every
   pair whose message is byte-equal to another's sends the very same
   bytes object.  40 members hold one short value, so t = 3 and the
   780 pairs draw from C(6, 3) = 20 possible selections. *)
let test_pairwise_shares_equal_messages () =
  let n = 40 in
  let round1 = ref [] and delivered = ref false in
  let sync = Netsim.Transport.sync () in
  let transport =
    { sync with
      Netsim.Transport.submit =
        (fun ~src ~dst b ->
          if not !delivered then round1 := b :: !round1;
          sync.submit ~src ~dst b);
      advance =
        (fun ~deliver ->
          delivered := true;
          sync.advance ~deliver)
    }
  in
  let net = Netsim.Net.create ~transport n in
  let verdicts =
    Mpc.Equality.pairwise net (Util.Prng.create 12) (params n)
      ~members:(List.init n Fun.id)
      ~value:(fun _ -> Bytes.of_string "one short value")
      ~corruption:(Netsim.Corruption.none ~n) ~adv:Mpc.Equality.honest_adv
  in
  List.iter (fun (_, ok) -> checkb "accepts" true ok) verdicts;
  Alcotest.(check int) "round-1 messages" (n * (n - 1) / 2) (List.length !round1);
  (* Per byte-distinct message, its physically distinct objects. *)
  let objects = Hashtbl.create 64 in
  List.iter
    (fun b ->
      let key = Bytes.to_string b in
      let seen = Option.value ~default:[] (Hashtbl.find_opt objects key) in
      if not (List.memq b seen) then Hashtbl.replace objects key (b :: seen))
    !round1;
  let physical = Hashtbl.fold (fun _ objs acc -> acc + List.length objs) objects 0 in
  checkb "some messages repeat" true (Hashtbl.length objects < List.length !round1);
  Alcotest.(check int) "physically distinct = byte-distinct" (Hashtbl.length objects) physical

(* ---- Differential oracle: [pairwise] against one table per member ----

   [Reference] is [pairwise] as it was before a member whose value is
   byte-equal to its predecessor's came to share that member's residue
   table: it computes a table per member.  Apart from its comments and
   the removal of its pooled path it is kept verbatim, so any change in
   what the protocol puts on the wire, decides or draws shows up as a
   difference.  The property runs both on random member sets over a few
   value classes with near-duplicates, under random corruption, four
   adversaries and a random λ, and compares every submitted message
   (src, dst, payload) in order, the verdicts, bits/messages/rounds, the
   adversary's call count and the next draw of the parent RNG.  A large
   λ takes the prime pool past 62 (where [pairwise] stops caching
   round-1 encodings by selection bitmask) and, with the large values,
   past 256 (where it stops storing selections). *)
module Reference = struct
  let decode_fp b =
    match Util.Codec.decode Crypto.Fingerprint.decode b with
    | fp -> Some fp
    | exception Util.Codec.Decode_error _ -> None

  let pairwise ?deadline net rng params ~members ~value ~corruption ~adv =
    let members_arr = Array.of_list members in
    let value =
      let cache = Hashtbl.create 16 in
      fun i ->
        match Hashtbl.find_opt cache i with
        | Some v -> v
        | None ->
          let v = value i in
          Hashtbl.replace cache i v;
          v
    in
    let k = Array.length members_arr in
    let net_n = Netsim.Net.n net in
    let ok = Hashtbl.create k in
    List.iter (fun m -> Hashtbl.replace ok m true) members;
    let fail m = Hashtbl.replace ok m false in
    let is_corrupt i = Netsim.Corruption.is_corrupted corruption i in
    let max_len = List.fold_left (fun acc m -> max acc (Bytes.length (value m))) 1 members in
    let t = Mpc.Params.fingerprint_t params ~msg_len:max_len in
    let pool_size = 2 * t in
    let crs_primes = Crypto.Fingerprint.sample_primes rng pool_size in
    let member_residues =
      Array.map (fun m -> Crypto.Fingerprint.residues_many (value m) crs_primes) members_arr
    in
    let pairs = Array.make (k * (k - 1) / 2) 0 in
    let posmat = Array.make (k * k) (-1) in
    let npairs = ref 0 in
    Array.iteri
      (fun idx i ->
        Array.iteri
          (fun jdx j ->
            if i < j then begin
              pairs.(!npairs) <- (idx * k) + jdx;
              posmat.((idx * k) + jdx) <- !npairs;
              incr npairs
            end)
          members_arr)
      members_arr;
    let npairs = !npairs in
    let payloads = Array.make npairs Bytes.empty in
    let sel_store = if pool_size <= 256 then Some (Bytes.create (npairs * t)) else None in
    let scratch = Util.Codec.writer () in
    let perm = Array.make pool_size 0 and sel = Array.make t 0 in
    let select_pair ~perm ~sel i j =
      let child = Util.Prng.derive rng ~key:((i * net_n) + j) in
      Util.Prng.sample_into child ~n:pool_size ~k:t ~scratch:perm ~dst:sel ~pos:0
    in
    for pos = 0 to npairs - 1 do
      let code = pairs.(pos) in
      let idx = code / k and jdx = code mod k in
      let i = members_arr.(idx) and j = members_arr.(jdx) in
      select_pair ~perm ~sel i j;
      (match sel_store with
      | Some store ->
        let off = pos * t in
        for s = 0 to t - 1 do
          Bytes.unsafe_set store (off + s) (Char.unsafe_chr sel.(s))
        done
      | None -> ());
      match adv.Mpc.Equality.tamper_fp with
      | Some f when is_corrupt i ->
        let fp =
          { Crypto.Fingerprint.primes = Array.map (fun s -> crs_primes.(s)) sel;
            residues = Array.map (fun s -> member_residues.(idx).(s)) sel
          }
        in
        let fp = f ~me:i ~dst:j fp in
        payloads.(pos) <- Util.Codec.encode_into scratch Crypto.Fingerprint.encode fp
      | _ ->
        Util.Codec.reset scratch;
        let res = member_residues.(idx) in
        Util.Codec.write_varint scratch t;
        for s = 0 to t - 1 do
          Util.Codec.write_varint scratch crs_primes.(sel.(s))
        done;
        Util.Codec.write_varint scratch t;
        for s = 0 to t - 1 do
          Util.Codec.write_varint scratch res.(sel.(s))
        done;
        payloads.(pos) <- Util.Codec.contents scratch
    done;
    for pos = 0 to npairs - 1 do
      let code = pairs.(pos) in
      Netsim.Net.send net ~src:members_arr.(code / k) ~dst:members_arr.(code mod k)
        payloads.(pos)
    done;
    Netsim.Net.step_until_quiet ?deadline net;
    let incoming = Array.make npairs None in
    for pos = 0 to npairs - 1 do
      let code = pairs.(pos) in
      incoming.(pos) <-
        Netsim.Net.recv_one net ~dst:members_arr.(code mod k) ~src:members_arr.(code / k)
    done;
    let verdicts = Array.make npairs false in
    let reported = Array.make npairs false in
    let verify_fast b sel res =
      let r = Util.Codec.reader b in
      match
        Util.Codec.read_varint r = t
        && (let ok = ref true in
            let s = ref 0 in
            while !ok && !s < t do
              if Util.Codec.read_varint r <> crs_primes.(sel.(!s)) then ok := false;
              incr s
            done;
            !ok)
        && Util.Codec.read_varint r = t
        && (let ok = ref true in
            let s = ref 0 in
            while !ok && !s < t do
              if Util.Codec.read_varint r <> res.(sel.(!s)) then ok := false;
              incr s
            done;
            !ok)
        && Util.Codec.at_end r
      with
      | ok -> ok
      | exception Util.Codec.Decode_error _ -> false
    in
    let reload_selection ~perm ~sel pos i j =
      match sel_store with
      | Some store ->
        let off = pos * t in
        for s = 0 to t - 1 do
          sel.(s) <- Char.code (Bytes.unsafe_get store (off + s))
        done
      | None -> select_pair ~perm ~sel i j
    in
    for pos = 0 to npairs - 1 do
      let code = pairs.(pos) in
      let jdx = code mod k in
      let i = members_arr.(code / k) and j = members_arr.(jdx) in
      reload_selection ~perm ~sel pos i j;
      let verdict =
        match incoming.(pos) with
        | Some b ->
          let res = member_residues.(jdx) in
          verify_fast b sel res
          || (match decode_fp b with
             | Some fp -> (
               let expected = Array.map (fun s -> crs_primes.(s)) sel in
               if fp.Crypto.Fingerprint.primes = expected then
                 fp.Crypto.Fingerprint.residues = Array.map (fun s -> res.(s)) sel
               else Crypto.Fingerprint.check fp (value j))
             | None -> false)
        | None -> false
      in
      verdicts.(pos) <- verdict;
      reported.(pos) <-
        (match adv.Mpc.Equality.lie_verdict with
        | Some f when is_corrupt j -> f ~me:j ~dst:i verdict
        | _ -> verdict)
    done;
    let verdict_yes = Bytes.make 1 '\001' and verdict_no = Bytes.make 1 '\000' in
    Array.iteri
      (fun jdx j ->
        Array.iteri
          (fun idx i ->
            if i < j then begin
              let pos = posmat.((idx * k) + jdx) in
              if not verdicts.(pos) then fail j;
              Netsim.Net.send net ~src:j ~dst:i
                (if reported.(pos) then verdict_yes else verdict_no)
            end)
          members_arr)
      members_arr;
    Netsim.Net.step_until_quiet ?deadline net;
    Array.iter
      (fun i ->
        Array.iter
          (fun j ->
            if i < j then begin
              let accepted =
                match Netsim.Net.recv_one net ~dst:i ~src:j with
                | Some b when Bytes.length b = 1 -> Bytes.get b 0 = '\001'
                | _ -> false
              in
              if not accepted then fail i
            end)
          members_arr)
      members_arr;
    List.map (fun m -> (m, Hashtbl.find ok m)) members
end

(* How a member's value derives from its class's base value: the same
   bytes, one flipped bit, one appended byte, or empty. *)
type variant = Same | Flip of int * int | Append of char | Empty

type case = {
  n : int;
  bases : string array;  (** 1-4 value classes *)
  members : (int * int * variant) list;  (** (party, class, variant) *)
  corrupted : int list;
  adversary : int;  (** 0 honest, 1 pure tamper, 2 stateful tamper, 3 lying verdicts *)
  lambda : int;
  seed : int;
}

let member_value case (_, cls, variant) =
  let base = Bytes.of_string case.bases.(cls) in
  match variant with
  | Same -> base
  | Flip (pos, bit) when Bytes.length base > 0 ->
    let pos = pos mod Bytes.length base in
    Bytes.set base pos (Char.chr (Char.code (Bytes.get base pos) lxor (1 lsl bit)));
    base
  | Flip _ -> Bytes.make 1 '\000'
  | Append c -> Bytes.cat base (Bytes.make 1 c)
  | Empty -> Bytes.empty

let gen_case =
  let open QCheck.Gen in
  let base =
    (* Mostly short values; now and then a large one, whose selections
       are not stored when λ is large too. *)
    frequency [ (9, string_size (int_bound 200)); (1, string_size (int_range 20_000 24_000)) ]
  in
  let variant =
    frequency
      [ (6, return Same);
        (2, map2 (fun pos bit -> Flip (pos, bit)) nat (int_bound 7));
        (1, map (fun c -> Append c) char);
        (1, return Empty)
      ]
  in
  int_range 2 40 >>= fun n ->
  int_range 1 4 >>= fun nclasses ->
  array_repeat nclasses base >>= fun bases ->
  list_repeat n (triple bool (int_bound (nclasses - 1)) variant) >>= fun slots ->
  list_repeat n (frequency [ (3, return false); (1, return true) ]) >>= fun corrupt ->
  int_bound 3 >>= fun adversary ->
  frequency [ (3, return 8); (1, int_range 8 400) ] >>= fun lambda ->
  int >|= fun seed ->
  let members =
    List.concat (List.mapi (fun i (m, cls, v) -> if m then [ (i, cls, v) ] else []) slots)
  in
  let corrupted = List.concat (List.mapi (fun i c -> if c then [ i ] else []) corrupt) in
  { n; bases; members; corrupted; adversary; lambda; seed }

let print_case c =
  let variant = function
    | Same -> "="
    | Flip (p, b) -> Printf.sprintf "flip(%d,%d)" p b
    | Append c -> Printf.sprintf "append(%d)" (Char.code c)
    | Empty -> "empty"
  in
  Printf.sprintf "n=%d seed=%d adversary=%d lambda=%d bases=[%s] corrupted=[%s] members=[%s]"
    c.n c.seed c.adversary c.lambda
    (String.concat ";" (List.map (fun b -> string_of_int (String.length b)) (Array.to_list c.bases)))
    (String.concat ";" (List.map string_of_int c.corrupted))
    (String.concat ";"
       (List.map (fun (i, cls, v) -> Printf.sprintf "%d:%d%s" i cls (variant v)) c.members))

(* The adversaries.  [bump] mutates the record a [tamper_fp] is handed in
   place, so an implementation that passed a shared residue table to the
   adversary would corrupt other members' checks.  The stateful one
   tampers on every other call, which pins how often and in what order
   [tamper_fp] is called. *)
let adversary case calls =
  let bump (fp : Crypto.Fingerprint.fp) s =
    let t = Array.length fp.residues in
    if t > 0 then fp.residues.(s mod t) <- fp.residues.(s mod t) + 1
  in
  match case.adversary with
  | 0 -> Mpc.Equality.honest_adv
  | 1 ->
    let tamper ~me ~dst (fp : Crypto.Fingerprint.fp) =
      match (me + dst) mod 4 with
      | 0 -> fp
      | 1 ->
        bump fp (me * dst);
        fp
      | 2 ->
        (* Same primes in another order: the receiver's recompute path. *)
        { Crypto.Fingerprint.primes = Array.of_list (List.rev (Array.to_list fp.primes));
          residues = Array.of_list (List.rev (Array.to_list fp.residues))
        }
      | _ -> { Crypto.Fingerprint.primes = [||]; residues = [||] }
    in
    { Mpc.Equality.tamper_fp = Some tamper; lie_verdict = None }
  | 2 ->
    let tamper ~me:_ ~dst fp =
      let c = !calls in
      incr calls;
      if c mod 2 = 0 then bump fp dst;
      fp
    in
    { Mpc.Equality.tamper_fp = Some tamper; lie_verdict = None }
  | _ ->
    { Mpc.Equality.tamper_fp = None;
      lie_verdict = Some (fun ~me ~dst v -> if (me + dst) mod 3 = 0 then not v else v)
    }

(* Everything [pairwise] makes observable, with a transport that records
   each submission in order. *)
let observe case pairwise =
  let log = ref [] in
  let sync = Netsim.Transport.sync () in
  let transport =
    { sync with
      Netsim.Transport.submit =
        (fun ~src ~dst b ->
          log := (src, dst, Bytes.to_string b) :: !log;
          sync.submit ~src ~dst b)
    }
  in
  let net = Netsim.Net.create ~transport case.n in
  let rng = Util.Prng.create case.seed in
  let corruption =
    Netsim.Corruption.make ~n:case.n ~corrupted:(Util.Iset.of_list case.corrupted)
  in
  let calls = ref 0 in
  let adv = adversary case calls in
  let values = Hashtbl.create 16 in
  List.iter (fun ((i, _, _) as m) -> Hashtbl.replace values i (member_value case m)) case.members;
  let verdicts =
    pairwise net rng (params ~lambda:case.lambda case.n)
      ~members:(List.map (fun (i, _, _) -> i) case.members)
      ~value:(fun i -> Bytes.copy (Hashtbl.find values i))
      ~corruption ~adv
  in
  ( List.rev !log,
    verdicts,
    (Netsim.Net.total_bits net, Netsim.Net.messages_sent net, Netsim.Net.rounds net),
    !calls,
    Util.Prng.bits64 rng )

let prop_pairwise_matches_reference =
  QCheck.Test.make ~count:300 ~name:"pairwise = per-member-table reference"
    (QCheck.make ~print:print_case gen_case)
    (fun case ->
      observe case (Reference.pairwise ?deadline:None)
      = observe case (Mpc.Equality.pairwise ?deadline:None))

let () =
  Alcotest.run "equality"
    [
      ( "two-party",
        [
          Alcotest.test_case "equal accepts" `Quick test_two_party_equal;
          Alcotest.test_case "unequal rejects" `Quick test_two_party_unequal;
          Alcotest.test_case "single-byte difference" `Quick test_two_party_single_bit_difference;
          Alcotest.test_case "succinct communication" `Quick test_two_party_communication_succinct;
        ] );
      ( "pairwise",
        [
          Alcotest.test_case "all equal" `Quick test_pairwise_all_equal;
          Alcotest.test_case "one outlier" `Quick test_pairwise_one_outlier;
          Alcotest.test_case "two camps" `Quick test_pairwise_two_camps;
          Alcotest.test_case "tampered fingerprints" `Quick test_pairwise_tampered_fingerprint;
          Alcotest.test_case "lying verdict" `Quick test_pairwise_lying_verdict_cannot_fool_receiver;
          Alcotest.test_case "quadratic cost" `Quick test_pairwise_cost_scales_with_members;
          Alcotest.test_case "equal honest messages share bytes" `Quick
            test_pairwise_shares_equal_messages;
          QCheck_alcotest.to_alcotest prop_pairwise_matches_reference;
        ] );
    ]
