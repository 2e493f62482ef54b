let self_view ~claims ~views i =
  if claims.(i) then List.sort_uniq compare (i :: views.(i)) else views.(i)

let encode_fp fp = Util.Codec.encode Crypto.Fingerprint.encode fp

let decode_fp b =
  match Util.Codec.decode Crypto.Fingerprint.decode b with
  | fp -> Some fp
  | exception Util.Codec.Decode_error _ -> None

(* Cost phases (see Analysis.Costs).  Observables recorded by [run] under
   [pre]: [maxlen] (longest encoded claimant view — input to the
   fingerprint sizing, not a wire measurement), [fp_pairs] (mutual pairs
   whose lower id had not aborted before round A) and [pairs] (all mutual
   pairs; round B answers each).  Both steps always run, so rounds = 2. *)
let cost_phases ~pre ~n ~lambda =
  let open Analysis.Costs in
  let jn s = if pre = "" then s else pre ^ "." ^ s in
  let v s = Var (jn s) in
  let t = Cost_expr.fp_t ~lambda ~n ~len:(v "maxlen") in
  [
    bounded ~label:(jn "fingerprints") ~edge:"claimant->claimant"
      ~bits:(Cost_expr.bits (Mul [ v "fp_pairs"; Cost_expr.fp_bytes_hi t ]))
      ~slack:(Cost_expr.bits (Mul [ v "fp_pairs"; Cost_expr.fp_slack_bytes t ]))
      ~reason:Cost_expr.fp_reason ~messages:(v "fp_pairs") ~rounds:(Const 1);
    exact ~label:(jn "verdicts") ~edge:"claimant->claimant"
      ~bits:(Cost_expr.bits (v "pairs"))
      ~messages:(v "pairs") ~rounds:(Const 1);
  ]

let run ?deadline ?obs net rng params ~claims ~views ~corruption ~eq ~aborted =
  let n = Netsim.Net.n net in
  let ob k v = match obs with Some o -> Analysis.Costs.Obs.set o k v | None -> () in
  let is_corrupt i = Netsim.Corruption.is_corrupted corruption i in
  (* Encode each claimant's view once: the same bytes are fingerprinted by
     [i] and re-hashed by every partner [j], so per-pair re-encoding was a
     quadratic allocation hot spot at n = 512. *)
  let encoded = Array.make n Bytes.empty in
  for i = 0 to n - 1 do
    if claims.(i) then
      encoded.(i) <- Util.Codec.encode_int_list (self_view ~claims ~views i)
  done;
  let encoded_view i = encoded.(i) in
  let max_len =
    let len = ref 1 in
    for i = 0 to n - 1 do
      if claims.(i) then len := max !len (Bytes.length (encoded_view i))
    done;
    !len
  in
  let t = Params.fingerprint_t params ~msg_len:max_len in
  ob "maxlen" max_len;
  (* Adjacency matrix: [mutual] is evaluated for every ordered pair, and
     [List.mem] over committee-sized view lists made it O(n^2 |C|).  One
     byte per entry, not one word: 1 MB rather than 8 MB at n = 1024. *)
  let sees = Bytes.make (n * n) '\000' in
  for i = 0 to n - 1 do
    List.iter (fun j -> if j >= 0 && j < n then Bytes.set sees ((i * n) + j) '\001') views.(i)
  done;
  let sees i j = Bytes.get sees ((i * n) + j) <> '\000' in
  let mutual i j = claims.(i) && claims.(j) && sees i j && sees j i in
  (* Structural counts for the cost spec: how many ordered-pair channels
     each round uses.  Round A skips pairs whose lower id already aborted;
     round B answers every mutual pair, so the two counts can differ. *)
  let fp_pairs = ref 0 and pairs = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if mutual i j then begin
        incr pairs;
        if not aborted.(i) then incr fp_pairs
      end
    done
  done;
  ob "fp_pairs" !fp_pairs;
  ob "pairs" !pairs;
  (* Round A: lower id sends its fingerprint. *)
  let my_fp = Array.make n None in
  for i = 0 to n - 1 do
    if claims.(i) && not aborted.(i) then
      my_fp.(i) <- Some (Crypto.Fingerprint.make rng ~t (encoded_view i))
  done;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if mutual i j && not aborted.(i) then
        match my_fp.(i) with
        | Some fp ->
          let fp =
            match eq.Equality.tamper_fp with
            | Some f when is_corrupt i -> f ~me:i ~dst:j fp
            | _ -> fp
          in
          Netsim.Net.send net ~src:i ~dst:j (encode_fp fp)
        | None -> ()
    done
  done;
  Netsim.Net.step_until_quiet ?deadline net;
  (* Round B: receivers verify and reply one bit. *)
  for j = 0 to n - 1 do
    for i = 0 to j - 1 do
      if mutual i j then begin
        let verdict =
          (* [recv_one] drains like [recv_from] and is [Some] exactly on
             the one-message case the [[ b ]] pattern matched. *)
          match Netsim.Net.recv_one net ~dst:j ~src:i with
          | Some b -> (
            match decode_fp b with
            | Some fp -> Crypto.Fingerprint.check fp (encoded_view j)
            | None -> false)
          | None -> false
        in
        if (not verdict) && not (is_corrupt j) then aborted.(j) <- true;
        let reported =
          match eq.Equality.lie_verdict with
          | Some f when is_corrupt j -> f ~me:j ~dst:i verdict
          | _ -> verdict
        in
        Netsim.Net.send net ~src:j ~dst:i
          (Bytes.make 1 (if reported then '\001' else '\000'))
      end
    done
  done;
  Netsim.Net.step_until_quiet ?deadline net;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if mutual i j then begin
        let accepted =
          match Netsim.Net.recv_one net ~dst:i ~src:j with
          | Some b when Bytes.length b = 1 -> Bytes.get b 0 = '\001'
          | _ -> false
        in
        if not accepted then aborted.(i) <- true
      end
    done
  done
