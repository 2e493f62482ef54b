type adv = {
  tamper_fp : (me:int -> dst:int -> Crypto.Fingerprint.fp -> Crypto.Fingerprint.fp) option;
  lie_verdict : (me:int -> dst:int -> bool -> bool) option;
}

let honest_adv = { tamper_fp = None; lie_verdict = None }

(* ---- cost specs (see Analysis.Costs) ---------------------------------- *)

let cost_spec_run ~n ~lambda ~len =
  let open Analysis.Costs in
  let t = Cost_expr.fp_t ~lambda ~n ~len in
  {
    name = "equality.run";
    phases =
      [
        bounded ~label:"fingerprint" ~edge:"p1->p2"
          ~bits:(Cost_expr.bits (Cost_expr.fp_bytes_hi t))
          ~slack:(Cost_expr.bits (Cost_expr.fp_slack_bytes t))
          ~reason:Cost_expr.fp_reason ~messages:(Const 1) ~rounds:(Const 1);
        exact ~label:"verdict" ~edge:"p2->p1" ~bits:(Const 8) ~messages:(Const 1)
          ~rounds:(Const 1);
      ];
    max_locality = None;
  }

(* Both steps of [pairwise] run even when there are fewer than 2 members
   (the send loops are just empty), so rounds is unconditionally 2;
   callers that skip the whole call below a threshold wrap these in
   [Costs.guard]. *)
let cost_phases_pairwise ~pre ~k ~maxlen ~n ~lambda =
  let open Analysis.Costs in
  let jn s = if pre = "" then s else pre ^ "." ^ s in
  let t = Cost_expr.fp_t ~lambda ~n ~len:maxlen in
  let pairs = Choose2 k in
  [
    bounded ~label:(jn "fingerprints") ~edge:"member->member"
      ~bits:(Cost_expr.bits (Mul [ pairs; Cost_expr.fp_bytes_hi t ]))
      ~slack:(Cost_expr.bits (Mul [ pairs; Cost_expr.fp_slack_bytes t ]))
      ~reason:Cost_expr.fp_reason ~messages:pairs ~rounds:(Const 1);
    exact ~label:(jn "verdicts") ~edge:"member->member" ~bits:(Cost_expr.bits pairs)
      ~messages:pairs ~rounds:(Const 1);
  ]

let encode_fp fp = Util.Codec.encode Crypto.Fingerprint.encode fp

let decode_fp b =
  match Util.Codec.decode Crypto.Fingerprint.decode b with
  | fp -> Some fp
  | exception Util.Codec.Decode_error _ -> None

let run ?deadline net rng params ~p1 ~p2 ~m1 ~m2 =
  let t = Params.fingerprint_t params ~msg_len:(max (Bytes.length m1) (Bytes.length m2)) in
  let fp = Crypto.Fingerprint.make rng ~t m1 in
  Netsim.Net.send net ~src:p1 ~dst:p2 (encode_fp fp);
  Netsim.Net.step_until_quiet ?deadline net;
  let verdict =
    match Netsim.Net.recv_from net ~dst:p2 ~src:p1 with
    | [ b ] -> ( match decode_fp b with Some fp -> Crypto.Fingerprint.check fp m2 | None -> false)
    | _ -> false
  in
  Netsim.Net.send net ~src:p2 ~dst:p1 (Bytes.make 1 (if verdict then '\001' else '\000'));
  Netsim.Net.step_until_quiet ?deadline net;
  let p1_flag =
    match Netsim.Net.recv_from net ~dst:p1 ~src:p2 with
    | [ b ] when Bytes.length b = 1 -> Bytes.get b 0 = '\001'
    | _ -> false
  in
  (p1_flag, verdict)

(* A member's view as the protocols compare it (All-to-All §2.1,
   Algorithm 3 step 5, Algorithm 8 step 7, the multi-output step 8): a
   list of (party id, what that party sent, [None] for silence). *)
let write_view w view =
  Util.Codec.write_list w
    (fun w (id, v) ->
      Util.Codec.write_varint w id;
      Util.Codec.write_option w Util.Codec.write_bytes v)
    view

(* One scratch writer per call: its capacity grows to the largest view
   once, and each member's encoding is one copy out of it, instead of a
   fresh [Buffer] doubling its way to every (possibly 285 KB) view.
   [pairwise] calls [value] once per member, one call at a time, so the
   scratch has a single owner. *)
let view_value view_of =
  let scratch = Util.Codec.writer () in
  fun i -> Util.Codec.encode_into scratch write_view (view_of i)

(* Round-1 encodings of honest messages, keyed by selection bitmask. *)
module Sel_table = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

let pairwise ?deadline net rng params ~members ~value ~corruption ~adv =
  let members_arr = Array.of_list members in
  (* Callers often encode large views in [value]; evaluate it once per
     member (the results are consulted again for sizing, table sharing
     and tamper-recovery checks). *)
  let values = Array.map value members_arr in
  let k = Array.length members_arr in
  let net_n = Netsim.Net.n net in
  let ok = Hashtbl.create k in
  List.iter (fun m -> Hashtbl.replace ok m true) members;
  let fail m = Hashtbl.replace ok m false in
  let is_corrupt i = Netsim.Corruption.is_corrupted corruption i in
  (* Fingerprint length: members may hold different-length values; size the
     test for the longest so soundness covers all pairs. *)
  let max_len = Array.fold_left (fun acc v -> max acc (Bytes.length v)) 1 values in
  let t = Params.fingerprint_t params ~msg_len:max_len in
  (* Prime pool: the CRS samples 2t random primes once, after all values
     are fixed; each pair's keyed substream (below) then selects its own
     t-subset.  Every selected prime is a uniformly random 29-bit prime
     sampled after the values were fixed, so the per-pair union bound of
     Lemma 5 is unchanged; selecting from a shared pool (rather than
     sampling per pair) is what lets each member run Horner once per pool
     prime instead of once per pair — Θ(k) less work on the hot path. *)
  let pool_size = 2 * t in
  let crs_primes = Crypto.Fingerprint.sample_primes rng pool_size in
  (* Residue tables over the whole pool.  A member whose value is
     byte-equal to its predecessor's shares that member's table — one
     [Bytes.equal] — so an honest run (every view the same) sweeps Horner
     once instead of once per member, and no input costs more sweeps than
     members.  The tables are read-only from here on — the tamper path
     below copies the selected residues into a fresh record. *)
  let member_residues = Array.make k [||] in
  Array.iteri
    (fun idx v ->
      member_residues.(idx) <-
        (if idx > 0 && Bytes.equal v values.(idx - 1) then member_residues.(idx - 1)
         else Crypto.Fingerprint.residues_many v crs_primes))
    values;
  (* Enumerate pairs in round-1 send order (sender-major, exactly the
     order the sequential loop used); [posmat] recovers a pair's position
     for the round-2 (receiver-major) commit. *)
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
  (* Round 1: each pair's fingerprint, built and sent in pair order.
     Bits on the wire are a pure function of (seed, key). *)
  let payloads = Array.make npairs Bytes.empty in
  (* Selections are remembered across the two rounds: [Prng.derive] reads
     the parent without advancing it and nothing draws from [rng] between
     the rounds, so a round-2 recompute would be a pure duplicate — a
     round-2 check that needs the selection reloads it instead, with a
     bit-identical transcript.  Every selected index is < pool_size = 2t,
     which fits a byte whenever pool_size <= 256 (any non-degenerate
     message length), so the store is one packed byte per selection —
     Θ(k²t) bytes, not boxed-int words; page faults on fresh heap are
     the dominant kernel cost at k = 2048.  In the t > 128 corner the
     store is skipped and round 2 re-derives the pair's substream — a
     pure function of (seed, key), so the transcript is unchanged
     either way. *)
  let sel_store = if pool_size <= 256 then Some (Bytes.create (npairs * t)) else None in
  (* The pair's substream is keyed by the ordered pair of party ids — a
     pure function of the parent stream position and the key, so round 2
     can re-derive it without drawing from [rng].  [sample_into] writes
     the pair's sorted t-subset into a reusable [sel] scratch: the same
     draws as the list-returning sampler, none of its per-pair array,
     list and polymorphic-sort churn. *)
  let select_pair ~perm ~sel i j =
    let child = Util.Prng.derive rng ~key:((i * net_n) + j) in
    Util.Prng.sample_into child ~n:pool_size ~k:t ~scratch:perm ~dst:sel ~pos:0
  in
  (* An honest message — [Fingerprint.encode]'s exact wire layout, a
     varint array of the selected primes then one of the sender's
     residues — is a function of the sender's residue table and the
     pair's selection alone, and selections repeat: an honest a2a-fp
     round at n = 512 sends 130,816 messages that take 3,432 distinct
     values (every 7-subset of 14 primes).  [sel] is sorted, so a
     selection is its set, and while [pool_size <= 62] the set packs
     into one int bitmask.  The round then keeps its encodings by
     bitmask for the table of the sender it is on ([owner]), and every
     pair with a cached selection sends the very same bytes.  Pairs run
     sender-major, and a residue-table group is a run of consecutive
     members, so the round meets each group in one run: clearing the
     cache when the table changes gives one cache per group.  Above 62
     pool primes each pair encodes its own message, as before.  Shared
     bytes are safe because delivered payloads are read-only. *)
  let cacheable = pool_size <= 62 in
  (* Streamed straight from the CRS tables — no fp record, no
     per-selection arrays — and byte-identical to the record path, so
     the transcript (and the bits accounting derived from it) cannot
     move. *)
  let encode_honest w res sel =
    Util.Codec.reset w;
    Util.Codec.write_varint w t;
    for s = 0 to t - 1 do
      Util.Codec.write_varint w crs_primes.(sel.(s))
    done;
    Util.Codec.write_varint w t;
    for s = 0 to t - 1 do
      Util.Codec.write_varint w res.(sel.(s))
    done;
    Util.Codec.contents w
  in
  (* Round scratch: one writer, the sampler's permutation and selection
     buffers, and the encodings cached for the residue table [owner]. *)
  let writer = Util.Codec.writer () in
  let perm = Array.make pool_size 0 and sel = Array.make t 0 in
  let owner = ref [||] and encoded = Sel_table.create (if cacheable then 64 else 1) in
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
    let res = member_residues.(idx) in
    payloads.(pos) <-
      (match adv.tamper_fp with
      | Some f when is_corrupt i ->
        (* Tamper path: materialize the record so the adversary can
           mangle it, then encode through the scratch writer.  It
           neither reads nor fills the cache. *)
        let fp =
          { Crypto.Fingerprint.primes = Array.map (fun s -> crs_primes.(s)) sel;
            residues = Array.map (fun s -> res.(s)) sel
          }
        in
        Util.Codec.encode_into writer Crypto.Fingerprint.encode (f ~me:i ~dst:j fp)
      | _ when not cacheable -> encode_honest writer res sel
      | _ -> (
        if !owner != res then begin
          owner := res;
          Sel_table.clear encoded
        end;
        let mask = ref 0 in
        for s = 0 to t - 1 do
          mask := !mask lor (1 lsl sel.(s))
        done;
        match Sel_table.find encoded !mask with
        | b -> b
        | exception Not_found ->
          let b = encode_honest writer res sel in
          Sel_table.add encoded !mask b;
          b));
    Netsim.Net.send net ~src:i ~dst:j payloads.(pos)
  done;
  Netsim.Net.step_until_quiet ?deadline net;
  (* Round 2: receivers check and answer one bit. *)
  let incoming = Array.make npairs None in
  for pos = 0 to npairs - 1 do
    let code = pairs.(pos) in
    incoming.(pos) <-
      Netsim.Net.recv_one net ~dst:members_arr.(code mod k) ~src:members_arr.(code / k)
  done;
  let verdicts = Array.make npairs false in
  let reported = Array.make npairs false in
  (* Honest round-2 fast path: walk the incoming payload once, comparing
     each decoded varint against the expected value — no fp record, no
     residue arrays.  Any deviation (wrong length, wrong prime or residue,
     trailing bytes, malformed varint) abandons the walk and re-runs the
     full decode-and-check slow path, so adversarial semantics are
     untouched; an accepted walk is exactly the condition under which the
     slow path would answer [true]. *)
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
  (* Refill [sel] with pair [pos]'s selection: unpacked from the byte
     store, or re-derived in the corner where it wasn't stored. *)
  let reload_selection ~perm ~sel pos i j =
    match sel_store with
    | Some store ->
      let off = pos * t in
      for s = 0 to t - 1 do
        sel.(s) <- Char.code (Bytes.unsafe_get store (off + s))
      done
    | None -> select_pair ~perm ~sel i j
  in
  (* Byte equality first: when the pair's sender took the honest path
     and shares the receiver's residue table, the receiver's expected
     message is exactly the pair's round-1 payload — the same object,
     on the sync transport.  The honest encoding is canonical, so
     [verify_fast] accepts it too, and accepting byte-equal bytes
     without a decode is exact.  A tampered payload is never the
     reference: it is not what the receiver expects, and matching it
     would accept what [verify_fast] rejects. *)
  let sends_honestly i =
    match adv.tamper_fp with Some _ -> not (is_corrupt i) | None -> true
  in
  for pos = 0 to npairs - 1 do
    let code = pairs.(pos) in
    let idx = code / k and jdx = code mod k in
    let i = members_arr.(idx) and j = members_arr.(jdx) in
    let verdict =
      match incoming.(pos) with
      | Some b ->
        let res = member_residues.(jdx) in
        let sent = payloads.(pos) in
        (member_residues.(idx) == res && sends_honestly i
        && (b == sent || Bytes.equal b sent))
        || begin
          reload_selection ~perm ~sel pos i j;
          verify_fast b sel res
          || (match decode_fp b with
             | Some fp -> (
               (* The expected primes: the pair's cached selection.  Same
                  primes: compare residues directly; different primes (a
                  tampered message): fall back to recompute. *)
               let expected = Array.map (fun s -> crs_primes.(s)) sel in
               if fp.Crypto.Fingerprint.primes = expected then
                 fp.Crypto.Fingerprint.residues = Array.map (fun s -> res.(s)) sel
               else Crypto.Fingerprint.check fp values.(jdx))
             | None -> false)
        end
      | None -> false
    in
    verdicts.(pos) <- verdict;
    reported.(pos) <-
      (match adv.lie_verdict with
      | Some f when is_corrupt j -> f ~me:j ~dst:i verdict
      | _ -> verdict)
  done;
  (* Send the verdict bits in receiver-major order, applying the verdict
     bookkeeping on the way.  The two 1-byte verdict payloads are shared across all Θ(k²) sends:
     delivered payloads are read-only by convention, so aliasing one
     bytes value from every mailbox is safe and saves an allocation per
     pair. *)
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
