type result = {
  public_output : bytes;
  private_outputs : (int * bytes) list;
}

type adv = {
  sb : All_to_all.adv;
  substitute_input : (me:int -> bytes -> bytes) option;
  tamper_partial : (me:int -> dst:int -> bool) option;
  drop_partial : (me:int -> dst:int -> bool) option;
}

let honest_adv =
  {
    sb = All_to_all.honest_adv;
    substitute_input = None;
    tamper_partial = None;
    drop_partial = None;
  }

(* Round-1 message: the MKFHE public key + encrypted input + NIZK, modeled
   as pseudorandom filler of the exact Theorem 9 size, domain-separated per
   sender so distinct parties' messages differ (as real ciphertexts would). *)
let round1_message params ~depth ~me ~input =
  let input_bits = 8 * Bytes.length input in
  let len = Cost_model.round1_bytes ~lambda:params.Params.lambda ~depth ~input_bits in
  let tag =
    Printf.sprintf "round1/%d/%s" me (Crypto.Sha256.to_hex (Crypto.Sha256.digest input))
  in
  Cost_model.filler ~tag ~len

(* Partial decryption carrier: 1 validity byte + poly(lambda, D) bytes per
   output bit.  Tag 0 = honest (NIZK verifies), anything else = detected. *)
let partial_dec_message params ~depth ~me ~dst ~out_bytes ~tampered =
  let per_block = Cost_model.partial_dec_bytes ~lambda:params.Params.lambda ~depth in
  let body_len = per_block * Cost_model.blocks (8 * max 1 out_bytes) in
  let tag = Printf.sprintf "pdec/%d/%d" me dst in
  let body = Cost_model.filler ~tag ~len:body_len in
  let head = Bytes.make 1 (if tampered then '\001' else '\000') in
  Bytes.cat head body

(* Cost phases (see Analysis.Costs): the round-1 simultaneous broadcast
   is a fingerprinted All_to_all run over [k] members carrying
   [Cost_model.round1_bytes]-sized payloads, then every participant sends
   a partial decryption to each of the [recipients] parties holding a
   nonempty private output (one step), and the final collection drains
   inboxes without stepping.  All phase parameters are closed-form given
   the participant set and the output layout; only the embedded
   fingerprint residues carry slack. *)
let cost_phases ~pre ~k ~idsum ~depth ~inbits ~outbytes ~recipients ~n ~lambda =
  let open Analysis.Costs in
  let jn s = if pre = "" then s else pre ^ "." ^ s in
  let r1 = Cost_expr.round1_bytes ~lambda ~depth ~input_bits:inbits in
  let pdec = Cost_expr.pdec_payload ~lambda ~depth ~out_bytes:outbytes in
  let pdec_msgs = Mul [ recipients; Sub (k, Const 1) ] in
  All_to_all.cost_phases ~variant:All_to_all.Fingerprinted ~pre:(jn "sb") ~k ~idsum ~len:r1
    ~n ~lambda
  @ [
      exact ~label:(jn "pdec") ~edge:"member->recipient"
        ~bits:(Cost_expr.bits (Mul [ pdec_msgs; pdec ]))
        ~messages:pdec_msgs ~rounds:(Const 1);
    ]

let cost_spec ~k ~idsum ~depth ~inbits ~outbytes ~recipients ~n ~lambda =
  {
    Analysis.Costs.name = "enc_func.run";
    phases = cost_phases ~pre:"" ~k ~idsum ~depth ~inbits ~outbytes ~recipients ~n ~lambda;
    max_locality = None;
  }

let run ?deadline net rng params ~participants ~private_input ~depth ~eval ~corruption ~adv =
  let members = List.sort_uniq compare participants in
  let is_corrupt i = Netsim.Corruption.is_corrupted corruption i in
  (* Evaluate each party's input exactly once: input thunks may consume
     fresh randomness, and the same value must be used consistently in the
     broadcast, the views, and the ideal evaluation. *)
  let input_cache = Hashtbl.create 16 in
  let effective_input i =
    match Hashtbl.find_opt input_cache i with
    | Some x -> x
    | None ->
      let x = private_input i in
      let x =
        match adv.substitute_input with
        | Some f when is_corrupt i -> f ~me:i x
        | _ -> x
      in
      Hashtbl.replace input_cache i x;
      x
  in
  (* Phase 1: simultaneous broadcast of the round-1 messages. *)
  let sb_results =
    All_to_all.run ?deadline net rng params ~variant:All_to_all.Fingerprinted
      ~participants:members
      ~input:(fun i -> round1_message params ~depth ~me:i ~input:(effective_input i))
      ~corruption ~adv:adv.sb
  in
  let sb_ok = Hashtbl.create 16 in
  List.iter (fun (i, out) -> Hashtbl.replace sb_ok i (Outcome.is_output out)) sb_results;
  (* The ideal functionality evaluates on the effective inputs. *)
  let result = eval (List.map (fun i -> (i, effective_input i)) members) in
  List.iter
    (fun (recipient, _) ->
      if not (List.mem recipient members) then
        invalid_arg "Enc_func.run: eval produced output for a non-participant")
    result.private_outputs;
  let private_for i =
    match List.assoc_opt i result.private_outputs with Some b -> b | None -> Bytes.empty
  in
  (* Phase 2: partial decryptions toward every recipient of a private
     output, each sender in ascending member order. *)
  List.iter
    (fun sender ->
      if Hashtbl.find sb_ok sender then
        List.iter
          (fun recipient ->
            if recipient <> sender then begin
              let out = private_for recipient in
              if Bytes.length out > 0 then begin
                let dropped =
                  is_corrupt sender
                  &&
                  match adv.drop_partial with
                  | Some f -> f ~me:sender ~dst:recipient
                  | None -> false
                in
                if not dropped then begin
                  let tampered =
                    is_corrupt sender
                    &&
                    match adv.tamper_partial with
                    | Some f -> f ~me:sender ~dst:recipient
                    | None -> false
                  in
                  let msg =
                    partial_dec_message params ~depth ~me:sender ~dst:recipient
                      ~out_bytes:(Bytes.length out) ~tampered
                  in
                  Netsim.Net.send net ~src:sender ~dst:recipient msg
                end
              end
            end)
          members)
    members;
  Netsim.Net.step_until_quiet ?deadline net;
  (* Phase 3: recipients verify the proofs and assemble their outputs. *)
  List.map
    (fun i ->
      if not (Hashtbl.find sb_ok i) then
        (i, Outcome.Abort (Outcome.Upstream "round-1 broadcast"))
      else begin
        let out = private_for i in
        if Bytes.length out = 0 then (i, Outcome.Output (result.public_output, Bytes.empty))
        else begin
          let msgs = Netsim.Net.recv net ~dst:i in
          let senders = List.sort_uniq compare (List.map fst msgs) in
          let expected = List.filter (fun j -> j <> i) members in
          if List.exists (fun j -> not (List.mem j senders)) expected then
            (i, Outcome.Abort (Outcome.Missing "partial decryption"))
          else begin
            let all_valid =
              List.for_all
                (fun (_, payload) -> Bytes.length payload > 0 && Bytes.get payload 0 = '\000')
                msgs
            in
            if all_valid then (i, Outcome.Output (result.public_output, out))
            else (i, Outcome.Abort (Outcome.Bad_proof "partial decryption NIZK"))
          end
        end
      end)
    members
