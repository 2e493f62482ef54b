type config = {
  params : Params.t;
  pke : (module Crypto.Pke.S);
  circuit : Circuit.t;
  input_width : int;
  output_width : int;
}

type adv = {
  committee : Committee.adv;
  encf : Enc_func.adv;
  pk_forward : (me:int -> dst:int -> bytes -> bytes) option;
  input_ct : (me:int -> dst:int -> bytes -> bytes) option;
  eq : Equality.adv;
  forwarder_tamper : (dst:int -> bytes -> bytes) option;
  forwarder_drop : (dst:int -> bool) option;
}

let honest_adv =
  {
    committee = Committee.honest_adv;
    encf = Enc_func.honest_adv;
    pk_forward = None;
    input_ct = None;
    eq = Equality.honest_adv;
    forwarder_tamper = None;
    forwarder_drop = None;
  }

let slice_output config all_bits i =
  let w = config.output_width in
  Bitpack.pack (Array.sub all_bits (i * w) w)

let expected_outputs config ~inputs =
  let bits = Circuit.pack_inputs ~width:config.input_width (Array.to_list inputs) in
  let out = Circuit.eval config.circuit bits in
  Array.init (Array.length inputs) (fun i -> slice_output config out i)

(* Party i's submission: its input ciphertext and its encrypted SKE key. *)
let encode_submission ct kct =
  Util.Codec.encode
    (fun w () ->
      Util.Codec.write_bytes w ct;
      Util.Codec.write_bytes w kct)
    ()

let decode_submission b =
  match
    Util.Codec.decode
      (fun r ->
        let ct = Util.Codec.read_bytes r in
        let kct = Util.Codec.read_bytes r in
        (ct, kct))
      b
  with
  | v -> Some v
  | exception Util.Codec.Decode_error _ -> None
  | exception Invalid_argument _ -> None

(* The signed bundle forwarded to party i. *)
let encode_bundle ct' signature =
  Util.Codec.encode
    (fun w () ->
      Util.Codec.write_bytes w ct';
      Crypto.Merkle_sig.encode_signature w signature)
    ()

let decode_bundle b =
  match
    Util.Codec.decode
      (fun r ->
        let ct' = Util.Codec.read_bytes r in
        let signature = Crypto.Merkle_sig.decode_signature r in
        (ct', signature))
      b
  with
  | v -> Some v
  | exception Util.Codec.Decode_error _ -> None
  | exception Invalid_argument _ -> None

let run net rng config ~corruption ~inputs ~adv =
  let module P = (val config.pke : Crypto.Pke.S) in
  let params = config.params in
  let n = Netsim.Net.n net in
  if Array.length inputs <> n then invalid_arg "Multi_output.run: wrong input count";
  if Circuit.num_outputs config.circuit <> n * config.output_width then
    invalid_arg "Multi_output.run: circuit output arity mismatch";
  let is_corrupt i = Netsim.Corruption.is_corrupted corruption i in
  let abort = Array.make n None in
  let set_abort i r = if abort.(i) = None then abort.(i) <- Some r in
  let active i = abort.(i) = None in

  (* ---- Step 1: committee election ---- *)
  let views = Committee.run net rng params ~corruption ~adv:adv.committee in
  Array.iteri
    (fun i o -> match o with Outcome.Abort r -> set_abort i r | Outcome.Output _ -> ())
    views;
  let my_view i =
    match views.(i) with Outcome.Output v -> Some v | Outcome.Abort _ -> None
  in
  let members =
    List.filter
      (fun i ->
        active i && match my_view i with Some v -> v.Committee.elected | None -> false)
      (List.init n (fun i -> i))
  in

  (* ---- Steps 2-5: F_Gen,1 (encryption pk) and F_Gen,2 (signature pk'),
     each forwarded to the whole network with conflict detection ---- *)
  let keypair = ref None in
  let sig_keys = ref None in
  let run_fgen ~tag ~eval_pk =
    if members = [] then []
    else
      Enc_func.run net rng params ~participants:(List.filter active members)
        ~private_input:(fun i ->
          Crypto.Kdf.expand
            ~key:(Util.Prng.bytes rng 32)
            ~info:(Printf.sprintf "%s/%d" tag i)
            (max 8 (params.Params.lambda / 8)))
        ~depth:1
        ~eval:(fun member_inputs ->
          let seed =
            List.fold_left
              (fun acc (_, r) -> Crypto.Sha256.digest (Bytes.cat acc r))
              (Bytes.of_string tag) member_inputs
          in
          { Enc_func.public_output = eval_pk seed; private_outputs = [] })
        ~corruption ~adv:adv.encf
  in
  let forward_and_check pk_tbl =
    (* Each member forwards its copy to everyone; parties abort on
       conflicts. Returns the per-party accepted value. *)
    List.iter
      (fun c ->
        if active c then
          match Hashtbl.find_opt pk_tbl c with
          | Some pkb ->
            for dst = 0 to n - 1 do
              if dst <> c then begin
                let payload =
                  match adv.pk_forward with
                  | Some f when is_corrupt c -> f ~me:c ~dst pkb
                  | _ -> pkb
                in
                Netsim.Net.send net ~src:c ~dst payload
              end
            done
          | None -> ())
      members;
    Netsim.Net.step net;
    Array.init n (fun i ->
        let copies = List.map snd (Netsim.Net.recv net ~dst:i) in
        let copies =
          match Hashtbl.find_opt pk_tbl i with Some own -> own :: copies | None -> copies
        in
        match copies with
        | [] ->
          if active i then set_abort i (Outcome.Missing "no key received");
          None
        | first :: rest ->
          if List.for_all (Bytes.equal first) rest then Some first
          else begin
            if active i then set_abort i (Outcome.Equivocation "conflicting keys");
            None
          end)
  in
  (* F_Gen,1: PKE key. *)
  let gen1 =
    run_fgen ~tag:"fgen1" ~eval_pk:(fun seed ->
        let pk, sk = P.keygen_seeded seed in
        keypair := Some (pk, sk);
        P.public_key_bytes pk)
  in
  let member_pk = Hashtbl.create 8 in
  List.iter
    (fun (i, out) ->
      match out with
      | Outcome.Output (pkb, _) -> Hashtbl.replace member_pk i pkb
      | Outcome.Abort r -> set_abort i r)
    gen1;
  let party_pk = forward_and_check member_pk in
  (* F_Gen,2: signature key. Height covers one signature per party. *)
  let sig_height =
    let rec go k = if 1 lsl k >= n then k else go (k + 1) in
    go 0
  in
  let gen2 =
    run_fgen ~tag:"fgen2" ~eval_pk:(fun seed ->
        let sk', pk' = Crypto.Merkle_sig.keygen ~seed ~height:sig_height in
        sig_keys := Some (sk', pk');
        Crypto.Merkle_sig.public_key_bytes pk')
  in
  let member_spk = Hashtbl.create 8 in
  List.iter
    (fun (i, out) ->
      match out with
      | Outcome.Output (pkb, _) -> Hashtbl.replace member_spk i pkb
      | Outcome.Abort r -> set_abort i r)
    gen2;
  let party_spk = forward_and_check member_spk in

  (* ---- Steps 6-7: sample kᵢ, encrypt input and key, submit ---- *)
  let ske_keys = Array.init n (fun _ -> Crypto.Ske.keygen rng) in
  let input_bytes i = Bitpack.int_to_bytes inputs.(i) ~width:config.input_width in
  let own_sub = Hashtbl.create 8 in
  for i = 0 to n - 1 do
    if active i then
      match (party_pk.(i), my_view i) with
      | Some pkb, Some v -> (
        match P.public_key_of_bytes pkb with
        | None -> set_abort i (Outcome.Malformed "public key")
        | Some pk ->
          let ct = P.encrypt rng pk (input_bytes i) in
          let kct = P.encrypt rng pk (Crypto.Ske.key_bytes ske_keys.(i)) in
          let sub = encode_submission ct kct in
          if List.mem i v.Committee.committee then Hashtbl.replace own_sub i sub;
          List.iter
            (fun c ->
              if c <> i then begin
                let payload =
                  match adv.input_ct with
                  | Some f when is_corrupt i -> f ~me:i ~dst:c sub
                  | _ -> sub
                in
                Netsim.Net.send net ~src:i ~dst:c payload
              end)
            v.Committee.committee)
      | _ -> ()
  done;
  Netsim.Net.step net;
  let member_subs = Hashtbl.create 8 in
  List.iter
    (fun c ->
      if active c then begin
        let msgs = Netsim.Net.recv net ~dst:c in
        let tbl = Hashtbl.create n in
        List.iter
          (fun (src, s) ->
            match Hashtbl.find_opt tbl src with
            | None -> Hashtbl.replace tbl src (Some s)
            | Some (Some prev) when Bytes.equal prev s -> ()
            | Some _ -> Hashtbl.replace tbl src None)
          msgs;
        (match Hashtbl.find_opt own_sub c with
        | Some s -> Hashtbl.replace tbl c (Some s)
        | None -> ());
        let view =
          List.init n (fun i ->
              (i, match Hashtbl.find_opt tbl i with Some (Some s) -> Some s | _ -> None))
        in
        Hashtbl.replace member_subs c view
      end)
    members;

  (* ---- Step 8: pairwise equality on submission views ---- *)
  let eq_members = List.filter active members in
  let verdicts =
    if List.length eq_members >= 2 then
      Equality.pairwise net rng params ~members:eq_members
        ~value:(Equality.view_value (Hashtbl.find member_subs))
        ~corruption ~adv:adv.eq
    else List.map (fun c -> (c, true)) eq_members
  in
  List.iter
    (fun (c, ok) ->
      if (not ok) && not (is_corrupt c) then
        set_abort c (Outcome.Equality_failed "submission views differ"))
    verdicts;

  (* ---- Step 9: F_Comp,Sign ---- *)
  let comp_members = List.filter active members in
  let designated = match comp_members with c :: _ -> Some c | [] -> None in
  let bundles = ref [||] in
  let comp_results =
    if comp_members = [] then []
    else
      Enc_func.run net rng params ~participants:comp_members
        ~private_input:(fun c ->
          Crypto.Kdf.expand
            ~key:(Bytes.of_string (Printf.sprintf "moskshare/%d" c))
            ~info:"share" (max 8 (params.Params.lambda / 8)))
        ~depth:(Circuit.depth config.circuit)
        ~eval:(fun _ ->
          let canonical =
            let honest_members =
              List.filter (fun c -> Netsim.Corruption.is_honest corruption c) comp_members
            in
            match (honest_members, comp_members) with
            | c :: _, _ -> Hashtbl.find member_subs c
            | [], c :: _ -> Hashtbl.find member_subs c
            | [], [] -> []
          in
          let sk = match !keypair with Some (_, sk) -> sk | None -> assert false in
          let sig_sk = match !sig_keys with Some (sk', _) -> sk' | None -> assert false in
          (* Decrypt inputs and keys. *)
          let decoded =
            List.map
              (fun (i, sub) ->
                match sub with
                | None ->
                  (* A silent honest party: the ideal functionality still
                     computes with its true input and key (same derived-key
                     convention as the submitting path). *)
                  ( i,
                    (if is_corrupt i then 0 else inputs.(i)),
                    Some
                      (Crypto.Ske.of_seed
                         (Crypto.Sha256.digest (Crypto.Ske.key_bytes ske_keys.(i)))) )
                | Some sub -> (
                  match decode_submission sub with
                  | None -> (i, 0, None)
                  | Some (ct, kct) ->
                    let x =
                      match P.decrypt sk ct with
                      | Some pt -> Bitpack.bytes_to_int pt ~width:config.input_width
                      | None -> 0
                    in
                    let k =
                      match P.decrypt sk kct with
                      | Some kb when Bytes.length kb = Crypto.Ske.key_size ->
                        Some (Crypto.Ske.of_seed (Crypto.Sha256.digest kb))
                      | _ -> None
                    in
                    (* Honest parties' keys round-trip exactly; we apply the
                       same seed-derivation on both ends. *)
                    (i, x, k)))
              canonical
          in
          let bit_inputs =
            List.concat_map
              (fun (_, x, _) ->
                List.init config.input_width (fun k -> (x lsr k) land 1 = 1))
              decoded
          in
          let out_bits = Circuit.eval config.circuit (Array.of_list bit_inputs) in
          let bundle_arr =
            Array.of_list
              (List.map
                 (fun (i, _, k) ->
                   let y = slice_output config out_bits i in
                   let ct' =
                     match k with
                     | Some key -> Crypto.Ske.encrypt rng key y
                     | None -> Bytes.empty
                   in
                   let signature = Crypto.Merkle_sig.sign sig_sk ct' in
                   encode_bundle ct' signature)
                 decoded)
          in
          bundles := bundle_arr;
          (* The concatenated signed bundles are delivered to the single
             designated member as its private output. *)
          let concat =
            Util.Codec.encode
              (fun w -> Util.Codec.write_array w (fun w b -> Util.Codec.write_bytes w b))
              bundle_arr
          in
          {
            Enc_func.public_output = Bytes.empty;
            private_outputs =
              (match designated with Some d -> [ (d, concat) ] | None -> []);
          })
        ~corruption ~adv:adv.encf
  in
  let designated_payload = ref None in
  List.iter
    (fun (c, out) ->
      match out with
      | Outcome.Output (_, priv) ->
        if Some c = designated && Bytes.length priv > 0 then designated_payload := Some priv
      | Outcome.Abort r -> set_abort c r)
    comp_results;

  (* ---- Step 10: the designated member forwards each bundle ---- *)
  (match (designated, !designated_payload) with
  | Some d, Some _ when active d ->
    let arr = !bundles in
    for i = 0 to n - 1 do
      if i <> d && i < Array.length arr then begin
        let dropped =
          is_corrupt d && match adv.forwarder_drop with Some f -> f ~dst:i | None -> false
        in
        if not dropped then begin
          let payload =
            match adv.forwarder_tamper with
            | Some f when is_corrupt d -> f ~dst:i arr.(i)
            | _ -> arr.(i)
          in
          Netsim.Net.send net ~src:d ~dst:i payload
        end
      end
    done
  | _ -> ());
  Netsim.Net.step net;

  (* ---- Step 11: verify signature, decrypt own output ---- *)
  Array.init n (fun i ->
      match abort.(i) with
      | Some r -> Outcome.Abort r
      | None -> (
        let received =
          if Some i = designated then
            match !bundles with [||] -> None | arr when i < Array.length arr -> Some arr.(i) | _ -> None
          else
            match Netsim.Net.recv net ~dst:i with
            | [ (_, b) ] -> Some b
            | _ -> None
        in
        match received with
        | None -> Outcome.Abort (Outcome.Missing "no signed output bundle")
        | Some b -> (
          match (decode_bundle b, party_spk.(i)) with
          | None, _ -> Outcome.Abort (Outcome.Malformed "output bundle")
          | _, None -> Outcome.Abort (Outcome.Missing "no signature key")
          | Some (ct', signature), Some spk_bytes ->
            let spk = Crypto.Merkle_sig.public_key_of_bytes spk_bytes in
            if not
                 (match spk with
                 | Some spk -> Crypto.Merkle_sig.verify spk ct' signature
                 | None -> false)
            then
              Outcome.Abort Outcome.Bad_signature
            else begin
              let key = Crypto.Ske.of_seed (Crypto.Sha256.digest (Crypto.Ske.key_bytes ske_keys.(i))) in
              match Crypto.Ske.decrypt key ct' with
              | Some y -> Outcome.Output y
              | None -> Outcome.Abort Outcome.Decryption_failed
            end)))
